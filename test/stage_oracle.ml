(* The per-stage accounting [Runtime.Acc] did before it tallied packets
   per interned profile, kept as the oracle of the stage-totals suite:
   every stage of every output adds one sample to its label's float
   accumulator, and the breakdown reads each accumulator's count and
   mean. *)

type t = (string, Sb_sim.Stats.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let add (t : t) (out : Speedybox.Runtime.output) =
  List.iter
    (fun (stage : Sb_sim.Cost_profile.stage) ->
      let label = stage.Sb_sim.Cost_profile.label in
      let s =
        match Hashtbl.find_opt t label with
        | Some s -> s
        | None ->
            let s = Sb_sim.Stats.create () in
            Hashtbl.replace t label s;
            s
      in
      Sb_sim.Stats.add_int s (Sb_sim.Cost_profile.stage_cycles stage))
    out.Speedybox.Runtime.profile

(* [Report.stage_breakdown] as it read the float accumulators. *)
let breakdown (t : t) =
  let rows =
    Hashtbl.fold
      (fun label stats acc ->
        let total = Sb_sim.Stats.mean stats *. float_of_int (Sb_sim.Stats.count stats) in
        (label, Sb_sim.Stats.count stats, Sb_sim.Stats.mean stats, total) :: acc)
      t []
    |> List.sort (fun (la, _, _, a) (lb, _, _, b) ->
           let c = Float.compare b a in
           if c <> 0 then c else String.compare la lb)
  in
  let grand_total = List.fold_left (fun acc (_, _, _, t) -> acc +. t) 0. rows in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "stage breakdown (cycles):\n";
  List.iter
    (fun (label, n, mean, total) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %7d pkts  mean %6.0f  share %5.1f%%\n" label n mean
           (100. *. total /. Float.max 1. grand_total)))
    rows;
  Buffer.contents buf
