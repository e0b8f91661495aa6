open Sb_packet
open Sb_flow

type close = Fin | Rst | Stay_open

type flow = { tuple : Five_tuple.t; payloads : string array; close : close }

let make_flow ?(close = Fin) ~tuple ~payloads () =
  if Array.length payloads = 0 then invalid_arg "Workload.make_flow: flow needs data packets";
  { tuple; payloads; close }

let is_tcp flow = flow.tuple.Five_tuple.proto = 6

let packet_count flow = Array.length flow.payloads + if is_tcp flow then 1 else 0

let packets_of_flow flow =
  let { Five_tuple.src_ip; dst_ip; src_port; dst_port; proto } = flow.tuple in
  let n = Array.length flow.payloads in
  match proto with
  | 6 ->
      let syn =
        Packet.tcp ~flags:Tcp.Flags.syn ~src:src_ip ~dst:dst_ip ~src_port ~dst_port ()
      in
      let data =
        List.init n (fun k ->
            let last = k = n - 1 in
            let flags =
              if not last then Tcp.Flags.ack
              else
                match flow.close with
                | Fin -> Tcp.Flags.fin_ack
                | Rst -> Tcp.Flags.rst
                | Stay_open -> Tcp.Flags.ack
            in
            Packet.tcp ~payload:flow.payloads.(k) ~flags
              ~seq:(Int32.of_int (k + 1))
              ~src:src_ip ~dst:dst_ip ~src_port ~dst_port ())
      in
      syn :: data
  | 17 ->
      List.init n (fun k ->
          Packet.udp ~payload:flow.payloads.(k) ~src:src_ip ~dst:dst_ip ~src_port ~dst_port ())
  | p -> invalid_arg (Printf.sprintf "Workload.packets_of_flow: protocol %d" p)

let interleave rng flows =
  let queues = Array.of_list (List.filter (fun l -> l <> []) flows) in
  let remaining = ref (Array.length queues) in
  let out = ref [] in
  while !remaining > 0 do
    let i = Rng.int rng !remaining in
    (match queues.(i) with
    | [] -> assert false (* empty queues are swapped out below *)
    | p :: rest ->
        out := p :: !out;
        queues.(i) <- rest;
        if rest = [] then begin
          queues.(i) <- queues.(!remaining - 1);
          queues.(!remaining - 1) <- [];
          decr remaining
        end);
  done;
  List.rev !out

let round_robin flows =
  let rec go acc queues =
    let emitted, rest =
      List.fold_left
        (fun (emitted, rest) q ->
          match q with
          | [] -> (emitted, rest)
          | p :: tl -> (p :: emitted, if tl = [] then rest else tl :: rest))
        ([], []) queues
    in
    match emitted with
    | [] -> List.rev acc
    (* [emitted] is already reversed, which is what the reversed [acc]
       accumulator needs prepended. *)
    | _ -> go (emitted @ acc) (List.rev rest)
  in
  go [] flows

let poisson_cycles ~seed ~rate_mpps n =
  if rate_mpps <= 0. then invalid_arg "Workload.poisson_cycles: rate must be positive";
  let rng = Rng.create seed in
  let mean_gap = 2000. /. rate_mpps (* cycles at 2 GHz per packet *) in
  let now = ref 0. in
  Array.init n (fun _ ->
      now := !now +. Dist.exponential rng ~mean:mean_gap;
      int_of_float !now)

let with_poisson_times ~seed ~rate_mpps packets =
  let cycles = poisson_cycles ~seed ~rate_mpps (List.length packets) in
  List.iteri (fun i p -> p.Packet.ingress_cycle <- cycles.(i)) packets;
  packets

let printable rng = Char.chr (32 + Rng.int rng 95)

let random_payload rng ~len = String.init (max 0 len) (fun _ -> printable rng)

let payload_with_token rng ~token ~len =
  let tlen = String.length token in
  let len = max len tlen in
  let body = Bytes.of_string (random_payload rng ~len) in
  let off = if len = tlen then 0 else Rng.int rng (len - tlen + 1) in
  Bytes.blit_string token 0 body off tlen;
  Bytes.to_string body

type dcn_config = {
  seed : int;
  n_flows : int;
  mean_flow_packets : float;
  payload_len : int * int;
  udp_fraction : float;
  malicious_fraction : float;
  tokens : string list;
}

let default_dcn =
  {
    seed = 42;
    n_flows = 200;
    mean_flow_packets = 8.;
    payload_len = (16, 1400);
    udp_fraction = 0.1;
    malicious_fraction = 0.05;
    tokens = [ "attack" ];
  }

let service_ports = [| 80; 443; 8080; 53; 25; 110; 3306; 6379; 11211; 8443 |]

let dcn_flows cfg =
  let rng = Rng.create cfg.seed in
  let port_dist = Dist.Zipf.create ~n:(Array.length service_ports) ~s:1.1 in
  let n_services = 16 in
  let services =
    Array.init n_services (fun i -> Ipv4_addr.of_octets 192 168 1 (10 + i))
  in
  let mu = log cfg.mean_flow_packets -. 0.5 in
  let tokens = Array.of_list cfg.tokens in
  List.init cfg.n_flows (fun i ->
      let src_ip =
        Ipv4_addr.of_octets 10 (Rng.int rng 256) (Rng.int rng 256) (1 + Rng.int rng 254)
      in
      let dst_ip = Rng.choice rng services in
      let dst_port = service_ports.(Dist.Zipf.sample port_dist rng) in
      let src_port = Rng.int_in rng 32768 61000 in
      let proto = if Rng.bool rng cfg.udp_fraction then 17 else 6 in
      let tuple = { Five_tuple.src_ip; dst_ip; src_port; dst_port; proto } in
      let data_packets =
        Dist.clamp_int ~min:1 ~max:500 (Dist.lognormal rng ~mu ~sigma:1.1)
      in
      let lo, hi = cfg.payload_len in
      let plen = Rng.int_in rng lo hi in
      let malicious = Rng.bool rng cfg.malicious_fraction && Array.length tokens > 0 in
      let payloads =
        Array.init data_packets (fun _ ->
            if malicious then
              payload_with_token rng ~token:(Rng.choice rng tokens) ~len:plen
            else random_payload rng ~len:plen)
      in
      let close = if i mod 17 = 0 then Rst else Fin in
      { tuple; payloads; close })

let dcn_trace cfg =
  let rng = Rng.create (cfg.seed + 1) in
  interleave rng (List.map packets_of_flow (dcn_flows cfg))

let fixed_flows ?(seed = 7) ?(proto = 6) ~n_flows ~packets_per_flow ~payload_len () =
  let rng = Rng.create seed in
  List.init n_flows (fun i ->
      let tuple =
        {
          Five_tuple.src_ip = Ipv4_addr.of_octets 10 0 (i / 250) (1 + (i mod 250));
          dst_ip = Ipv4_addr.of_octets 192 168 1 10;
          src_port = 32768 + (i mod 28000);
          dst_port = 80;
          proto;
        }
      in
      let payloads =
        Array.init packets_per_flow (fun _ -> random_payload rng ~len:payload_len)
      in
      { tuple; payloads; close = Fin })

let fixed_trace ?(seed = 7) ?(proto = 6) ?(interleaved = true) ~n_flows ~packets_per_flow
    ~payload_len () =
  let flows = fixed_flows ~seed ~proto ~n_flows ~packets_per_flow ~payload_len () in
  let rendered = List.map packets_of_flow flows in
  if interleaved then interleave (Rng.create (seed + 1)) rendered else List.concat rendered
