type labels = (string * string) list

module Counter = struct
  type t = { mutable v : int }

  let incr c = c.v <- c.v + 1

  let add c n = c.v <- c.v + n

  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : float }

  let set g v = g.v <- v

  let value g = g.v
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type entry = {
  name : string;
  labels : labels;
  help : string;
  inst : instrument;
}

type t = { tbl : (string, entry) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let sort_labels labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Prometheus label-value escaping: backslash, double quote, newline. *)
let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v)) labels)
      ^ "}"

(* One extra label pair appended inside an existing label set (for the
   histogram [le] series). *)
let render_labels_with labels extra_k extra_v =
  let pairs =
    List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v)) labels
    @ [ Printf.sprintf "%s=%S" extra_k extra_v ]
  in
  "{" ^ String.concat "," pairs ^ "}"

let key name labels = name ^ render_labels labels

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let get_or_create t ~help ~labels name make =
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some entry -> entry.inst
  | None ->
      let inst = make () in
      Hashtbl.replace t.tbl k { name; labels; help; inst };
      inst

let counter t ?(help = "") ?(labels = []) name =
  match get_or_create t ~help ~labels name (fun () -> C { Counter.v = 0 }) with
  | C c -> c
  | inst ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %s already registered as a %s" name
           (kind_name inst))

let gauge t ?(help = "") ?(labels = []) name =
  match get_or_create t ~help ~labels name (fun () -> G { Gauge.v = 0. }) with
  | G g -> g
  | inst ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %s already registered as a %s" name (kind_name inst))

let histogram t ?(help = "") ?(labels = []) name =
  match get_or_create t ~help ~labels name (fun () -> H (Histogram.create ())) with
  | H h -> h
  | inst ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s already registered as a %s" name
           (kind_name inst))

let clear t = Hashtbl.reset t.tbl

(* Entries grouped by family name (sorted), series sorted by labels, so
   exports are deterministic and golden-testable. *)
let sorted_entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
  |> List.sort (fun a b ->
         let c = String.compare a.name b.name in
         if c <> 0 then c
         else String.compare (render_labels a.labels) (render_labels b.labels))

(* Merge [src] into [dst] by (name, labels): counters and gauges add,
   histograms merge bucket-wise.  Instruments missing from [dst] are
   created with [src]'s help text.  Iteration follows [src]'s sorted
   entries, so merging the same registries in the same order always
   produces the same [dst] — including histogram float sums, bit for
   bit. *)
let merge_into dst src =
  List.iter
    (fun e ->
      match e.inst with
      | C c ->
          Counter.add (counter dst ~help:e.help ~labels:e.labels e.name) (Counter.value c)
      | G g ->
          let d = gauge dst ~help:e.help ~labels:e.labels e.name in
          Gauge.set d (Gauge.value d +. Gauge.value g)
      | H h -> Histogram.merge_into (histogram dst ~help:e.help ~labels:e.labels e.name) h)
    (sorted_entries src)

let float_str v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let last_family = ref "" in
  List.iter
    (fun e ->
      if e.name <> !last_family then begin
        last_family := e.name;
        if e.help <> "" then line "# HELP %s %s" e.name e.help;
        line "# TYPE %s %s" e.name (kind_name e.inst)
      end;
      match e.inst with
      | C c -> line "%s%s %d" e.name (render_labels e.labels) (Counter.value c)
      | G g -> line "%s%s %s" e.name (render_labels e.labels) (float_str (Gauge.value g))
      | H h ->
          let cum = ref 0 in
          List.iter
            (fun (upper, count) ->
              cum := !cum + count;
              line "%s_bucket%s %d" e.name
                (render_labels_with e.labels "le" (float_str upper))
                !cum)
            (Histogram.buckets h);
          line "%s_bucket%s %d" e.name
            (render_labels_with e.labels "le" "+Inf")
            (Histogram.count h);
          line "%s_sum%s %s" e.name (render_labels e.labels) (float_str (Histogram.sum h));
          line "%s_count%s %d" e.name (render_labels e.labels) (Histogram.count h))
    (sorted_entries t);
  Buffer.contents buf

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v = if Float.is_nan v then "null" else Printf.sprintf "%g" v

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"speedybox-metrics/1\",\n  \"metrics\": [\n";
  let entries = sorted_entries t in
  List.iteri
    (fun i e ->
      let labels =
        String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             e.labels)
      in
      let body =
        match e.inst with
        | C c -> Printf.sprintf "\"value\": %d" (Counter.value c)
        | G g -> Printf.sprintf "\"value\": %s" (json_float (Gauge.value g))
        | H h ->
            Printf.sprintf
              "\"count\": %d, \"sum\": %s, \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": \
               %s, \"max\": %s"
              (Histogram.count h) (json_float (Histogram.sum h))
              (json_float (Histogram.mean h))
              (json_float (Histogram.percentile h 50.))
              (json_float (Histogram.percentile h 90.))
              (json_float (Histogram.percentile h 99.))
              (json_float (Histogram.max_value h))
      in
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"type\": \"%s\", \"labels\": {%s}, %s}%s\n"
           (json_escape e.name) (kind_name e.inst) labels body
           (if i < List.length entries - 1 then "," else "")))
    entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
