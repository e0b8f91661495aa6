module Five_tuple = Sb_flow.Five_tuple

(* Both orientations of a connection must reach the same shard, so hash
   the one [Five_tuple.compare] ranks first.  A tuple and its reverse
   share the protocol and swap the address-and-port halves, so the compare
   decides on source address, then source port: the order of [pack1]'s
   fields, high bits first.  A final multiplicative scramble decorrelates
   the modulo from the hash's low bits. *)
let shard_of_packed ~shards k1 k2 =
  if shards < 1 then invalid_arg "Steer.shard_of_packed: shards must be positive";
  if shards = 1 then 0
  else begin
    let r1 = Five_tuple.reverse_pack1 k1 k2 in
    let h =
      if k1 <= r1 then Five_tuple.hash_packed k1 k2
      else Five_tuple.hash_packed r1 (Five_tuple.reverse_pack2 k1 k2)
    in
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 31)) land max_int mod shards
  end

let shard_of_tuple ~shards t =
  if shards < 1 then invalid_arg "Steer.shard_of_tuple: shards must be positive";
  shard_of_packed ~shards (Five_tuple.pack1 t) (Five_tuple.pack2 t)

let shard_of_packet ~shards packet =
  if Five_tuple.admits packet then
    shard_of_packed ~shards (Five_tuple.packet_pack1 packet) (Five_tuple.packet_pack2 packet)
  else 0
