(** Packet descriptors: real wire-format frames plus the per-packet metadata
    SpeedyBox attaches (the 20-bit FID and ingress timestamp).

    A packet is a byte buffer laid out as
    [outer headers][Ethernet][IPv4][TCP or UDP][payload];
    the [outer] list mirrors the encapsulation stack present in the buffer
    so the consolidation algorithm can reason about push/pop pairs without
    re-parsing.  All field accessors read and write the buffer directly, so
    a packet is always serialisable as-is. *)

type proto = Tcp | Udp

type t = {
  mutable buf : bytes;
  mutable len : int;  (** valid bytes in [buf] *)
  mutable outer : Encap_header.t list;  (** head = outermost header *)
  mutable fid : int;  (** classifier metadata; [-1] when unset *)
  mutable ingress_cycle : int;  (** virtual-clock cycle of arrival *)
}

(** {1 Construction} *)

val tcp :
  ?payload:string ->
  ?flags:Tcp.Flags.t ->
  ?ttl:int ->
  ?tos:int ->
  ?seq:int32 ->
  ?src_mac:Mac.t ->
  ?dst_mac:Mac.t ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t
(** Builds a valid TCP/IPv4/Ethernet frame with correct checksums. *)

val udp :
  ?payload:string ->
  ?ttl:int ->
  ?tos:int ->
  ?src_mac:Mac.t ->
  ?dst_mac:Mac.t ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t

val copy : t -> t
(** Deep copy, including metadata. *)

val scratch : unit -> t
(** An empty reusable packet for {!copy_into}; not a valid packet until
    written to. *)

val copy_into : src:t -> dst:t -> unit
(** Copies [src] into [dst] in place, reusing [dst]'s buffer when large
    enough — the allocation-free alternative to {!copy} for replaying a
    template packet through the hot loop. *)

(** {1 Layout} *)

val l2_offset : t -> int
(** Offset of the Ethernet header (sum of outer header sizes). *)

val l3_offset : t -> int

val l4_offset : t -> int

val payload_offset : t -> int

val proto : t -> proto
(** @raise Invalid_argument on a non-TCP/UDP IPv4 protocol. *)

(** {1 Field access} *)

val get_field : t -> Field.t -> Field.value

val set_field : t -> Field.t -> Field.value -> unit
(** Writes the field into the buffer.  Checksums are {e not} updated; call
    [fix_checksums] once after a batch of modifications, as the Global MAT
    does at the end of consolidation.
    @raise Invalid_argument when the value type does not match the field. *)

val apply_sets_incremental : t -> (Field.t * Field.value) list -> bool
(** Applies a list of field writes with an RFC 1624 incremental update of
    the stored L4 checksum (O(fields) rather than O(payload)) and a full
    recompute of the 20-byte IPv4 header checksum.  Produces bytes
    identical to [set_field] per entry followed by [fix_checksums]
    whenever the stored L4 checksum matched the packet contents
    beforehand.  Returns [false] without modifying the packet when the
    stored checksum is zero (UDP's "not computed" convention) — the
    caller must fall back to the full-recompute path.
    @raise Invalid_argument when a value type does not match its field. *)

val src_ip : t -> Ipv4_addr.t
val dst_ip : t -> Ipv4_addr.t
val src_port : t -> int
val dst_port : t -> int
val ttl : t -> int
val tcp_flags : t -> Tcp.Flags.t
(** @raise Invalid_argument on UDP packets. *)

val tcp_flag_bits : t -> int
(** The raw flags byte (see {!Tcp.get_flag_bits}); allocation-free.
    @raise Invalid_argument on UDP packets. *)

(** {1 Payload} *)

val payload_length : t -> int

val payload : t -> string

val payload_bytes : t -> bytes * int * int
(** [(buf, off, len)] view for zero-copy inspection. *)

val set_payload_byte : t -> int -> char -> unit
(** [set_payload_byte p i c] overwrites payload byte [i]. *)

val blit_payload : t -> string -> unit
(** Overwrites the payload prefix with the given string (must fit). *)

(** {1 Encapsulation} *)

val encap : t -> Encap_header.t -> unit
(** Prepends the header bytes and pushes onto the [outer] stack. *)

val decap : t -> Encap_header.t
(** Pops and strips the outermost header.
    @raise Invalid_argument when there is no outer header. *)

val outer_stack : t -> Encap_header.t list

(** {1 Integrity} *)

val fix_checksums : t -> unit
(** Recomputes IPv4 and L4 checksums from current buffer contents. *)

val checksums_ok : t -> bool

val equal_wire : t -> t -> bool
(** Byte-for-byte equality of the frames (ignores metadata). *)

val wire : t -> string
(** The frame as a string, for logs and equivalence digests. *)

val pp : Format.formatter -> t -> unit
