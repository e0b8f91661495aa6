(* Smoke test of the end-to-end benchmark, run by `dune runtest`: every
   workload at ~2k packets, traced (so both metric sets are computed),
   checking that
   - the metric catalogue and workload list match BENCHMARK.json, names
     and units;
   - every metric is emitted, finite, with its unit;
   - the correctness gate passes on every workload;
   - its output comparison flags a one-byte difference, its executor
     comparison flags a chain configured differently on one side, and a
     run whose gate tripped exits non-zero. *)

open E2e

(* A minimal JSON reader: enough for BENCHMARK.json. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Num of float | Lit

let parse s =
  let pos = ref 0 in
  let ws () =
    while !pos < String.length s && String.contains " \t\r\n" s.[!pos] do
      incr pos
    done
  in
  let expect c =
    ws ();
    if s.[!pos] <> c then failwith (Printf.sprintf "JSON: expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while s.[!pos] <> '"' do
      if s.[!pos] = '\\' then incr pos;
      Buffer.add_char b s.[!pos];
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match s.[!pos] with
    | '{' -> Obj (seq '}' (fun () ->
                 let k = str () in
                 expect ':';
                 (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' | 'f' | 'n' ->
        while !pos < String.length s && s.[!pos] >= 'a' && s.[!pos] <= 'z' do
          incr pos
        done;
        Lit
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "+-.0123456789eE" s.[!pos] do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    incr pos;
    ws ();
    if s.[!pos] = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if s.[!pos] = ',' then (incr pos; more acc) else (expect close; List.rev acc)
      in
      more []
  in
  value ()

let field k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> failwith ("missing " ^ k))
  | _ -> failwith ("not an object at " ^ k)

let text = function Str s -> s | _ -> failwith "expected a string"
let items = function Arr l -> l | _ -> failwith "expected an array"

let check what cond = if not cond then failwith ("smoke: " ^ what)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let same_set what a b =
  let sort = List.sort compare in
  check (what ^ " differ from BENCHMARK.json") (sort a = sort b)

(* Runs [f] with standard output and error sent to /dev/null, so the
   deliberately failed run's report does not read as a failure in the
   test log. *)
let silently f =
  let fds = [ (stdout, Unix.stdout); (stderr, Unix.stderr) ] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let saved =
    List.map
      (fun (ch, fd) ->
        flush ch;
        let s = Unix.dup fd in
        Unix.dup2 null fd;
        s)
      fds
  in
  Unix.close null;
  Fun.protect f ~finally:(fun () ->
      List.iter2
        (fun (ch, fd) s ->
          flush ch;
          Unix.dup2 s fd;
          Unix.close s)
        fds saved)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let () =
  let bench = parse (read_file Sys.argv.(1)) in
  let named key = List.map (fun m -> (text (field "name" m), text (field "unit" m))) (items (field key bench)) in
  same_set "end-to-end metrics" (named "end_to_end") Runner.end_to_end;
  same_set "per-layer metrics" (named "per_layer") Runner.per_layer;
  same_set "workloads"
    (List.map (fun w -> text (field "name" w)) (items (field "workloads" bench)))
    (List.map (fun w -> w.Workloads.name) Workloads.all);
  (* The gate's comparison sees a single flipped byte. *)
  let p =
    Sb_packet.Packet.tcp ~payload:"0123456789"
      ~src:(Sb_packet.Ipv4_addr.of_string "10.0.0.1")
      ~dst:(Sb_packet.Ipv4_addr.of_string "192.168.1.10")
      ~src_port:40000 ~dst_port:80 ()
  in
  let out packet =
    {
      Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded;
      packet;
      profile = [];
      path = Speedybox.Runtime.Fast_path;
      latency_cycles = 0;
      service_cycles = 0;
      events_fired = 0;
      faults = 0;
    }
  in
  let flipped = Sb_packet.Packet.copy p in
  Sb_packet.Packet.set_payload_byte flipped 3 'x';
  check "identical outputs compare equal" (Gate.same_output (out p) (out (Sb_packet.Packet.copy p)));
  check "a one-byte difference is flagged" (not (Gate.same_output (out p) (out flipped)));
  (* The executor comparison against a chain whose Maglev has one
     backend fewer, so some flows leave for another backend. *)
  let wl = Option.get (Workloads.find "dcn-fastpath") in
  let other = { wl with Workloads.chain = "mazunat,maglev:7,monitor,ipfilter" } in
  let pass = Workloads.make_pass wl ~seed:7 ~smoke:true in
  let runtime wl =
    Speedybox.Runtime.create (Workloads.config pass) (Workloads.chain_builder wl ())
  in
  let tripped = Gate.lockstep (runtime wl) (runtime other) pass ~passes:1 in
  check "burst vs per-packet lockstep flags a different chain" (tripped.Gate.failed > 0);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun w ->
      let r =
        Runner.run { Runner.workload = w; seed = 7; seconds = 0; traced = true; smoke = true }
      in
      let name = w.Workloads.name in
      check (name ^ ": correctness gate") (Runner.correct r);
      List.iter
        (fun (r, catalog) ->
          let json = Runner.to_json r in
          List.iter
            (fun (metric, unit) ->
              let v = List.assoc metric (Option.value r.Runner.per_layer ~default:r.Runner.end_to_end) in
              check (Printf.sprintf "%s: %s is finite" name metric) (Float.is_finite v);
              check
                (Printf.sprintf "%s: %s emitted in %s" name metric unit)
                (contains json
                   (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" metric (Runner.number v) unit)))
            catalog)
        [ (r, Runner.per_layer); ({ r with Runner.per_layer = None }, Runner.end_to_end) ];
      Printf.printf "%s: %d packets timed, gate passed\n%!" name r.Runner.attempted;
      if w == List.hd (List.rev Workloads.all) then begin
        let failed = { r with Runner.gate = tripped } in
        check "a tripped gate reports the run incorrect"
          (contains (Runner.to_json failed)
             (Printf.sprintf "\"correct\": false, \"attempted\": %d, \"failed\": %d," r.Runner.attempted
                tripped.Gate.failed));
        check "a tripped gate exits non-zero" (silently (fun () -> Runner.finish failed) = 1)
      end)
    Workloads.all;
  Printf.printf "smoke: all workloads in %.1f s\n" (Unix.gettimeofday () -. t0)
