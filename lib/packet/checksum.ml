let fold16 sum = (sum land 0xffff) + (sum lsr 16)

let add a b =
  let s = a + b in
  fold16 (fold16 s)

let ones_complement_sum buf off len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  fold16 (fold16 !sum)

let finish sum =
  let v = lnot sum land 0xffff in
  if v = 0 then 0xffff else v

let compute buf off len = finish (ones_complement_sum buf off len)

let incremental ~old_checksum ~old_word ~new_word =
  (* RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'), all in one's complement. *)
  let sum =
    add (add (lnot old_checksum land 0xffff) (lnot old_word land 0xffff)) (new_word land 0xffff)
  in
  lnot sum land 0xffff

let incremental32 ~old_checksum ~(old_word : Ipv4_addr.t) ~(new_word : Ipv4_addr.t) =
  let hi (v : Ipv4_addr.t) = (v :> int) lsr 16 in
  let lo (v : Ipv4_addr.t) = (v :> int) land 0xffff in
  let after_hi = incremental ~old_checksum ~old_word:(hi old_word) ~new_word:(hi new_word) in
  incremental ~old_checksum:after_hi ~old_word:(lo old_word) ~new_word:(lo new_word)

let pseudo_header_sum ~src ~dst ~proto ~l4_len =
  let hi32 (a : Ipv4_addr.t) = (a :> int) lsr 16 in
  let lo32 (a : Ipv4_addr.t) = (a :> int) land 0xffff in
  let sum = hi32 src + lo32 src + hi32 dst + lo32 dst + proto + l4_len in
  fold16 (fold16 sum)
