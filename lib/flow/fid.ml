type t = int

let default_bits = 20

let of_hash ~bits h =
  if bits < 1 || bits > 30 then invalid_arg "Fid.of_hash: bits out of range";
  (* Fold the high bits in so narrow FIDs still see the whole hash. *)
  (h lxor (h lsr 30)) land ((1 lsl bits) - 1)

let of_tuple ?(bits = default_bits) tuple =
  if bits < 1 || bits > 30 then invalid_arg "Fid.of_tuple: bits out of range";
  of_hash ~bits (Five_tuple.hash tuple)

let of_packet ?bits p = of_tuple ?bits (Five_tuple.of_packet p)

let pp fmt t = Format.fprintf fmt "fid:%05x" t
