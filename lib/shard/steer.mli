(** Flow steering: which shard owns a packet.

    Steering is by {e symmetric} flow hash — both directions of a
    connection map to the same shard — so everything keyed per flow or per
    connection (conntrack entries, consolidated rules, per-flow NF state,
    armed events) lands on a single shard and never needs cross-shard
    coordination.  Packets without a 5-tuple (not TCP/UDP, or cut short of
    their headers) all steer to shard 0. *)

val shard_of_packed : shards:int -> int -> int -> int
(** [shard_of_packed ~shards (pack1 t) (pack2 t) = shard_of_tuple ~shards t],
    with no tuple built. *)

val shard_of_tuple : shards:int -> Sb_flow.Five_tuple.t -> int
(** [shard_of_tuple ~shards t] maps the tuple (or its reverse — the result
    is the same) to a shard in [0 .. shards-1]. *)

val shard_of_packet : shards:int -> Sb_packet.Packet.t -> int
(** Steering by the packet's current header fields; [0] for packets
    without a 5-tuple. *)
