type t = int

let mask32 = 0xffff_ffff

let of_int v = v land mask32

let of_octets a b c d =
  let check x =
    if x < 0 || x > 255 then invalid_arg "Ipv4_addr.of_octets: octet out of range"
  in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255 ->
          Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4_addr.of_string: %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" (a lsr 24) ((a lsr 16) land 0xff) ((a lsr 8) land 0xff)
    (a land 0xff)

(* Addresses lie in [0, 2^32), so signed int order is unsigned address
   order. *)
let compare = Int.compare

let equal = Int.equal

let pp fmt a = Format.pp_print_string fmt (to_string a)

module Prefix = struct
  type addr = t

  type t = { base : addr; bits : int }

  let mask bits = if bits = 0 then 0 else (mask32 lsl (32 - bits)) land mask32

  let make base bits =
    if bits < 0 || bits > 32 then invalid_arg "Ipv4_addr.Prefix.make: bits out of range";
    { base = base land mask bits; bits }

  let of_string s =
    match String.index_opt s '/' with
    | None -> make (of_string s) 32
    | Some i ->
        let addr = of_string (String.sub s 0 i) in
        let bits =
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some b -> b
          | None -> invalid_arg (Printf.sprintf "Ipv4_addr.Prefix.of_string: %S" s)
        in
        make addr bits

  let matches { base; bits } a = a land mask bits = base

  let to_string { base; bits } = Printf.sprintf "%s/%d" (to_string base) bits

  let pp fmt p = Format.pp_print_string fmt (to_string p)
end
