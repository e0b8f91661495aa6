(** Big-endian (network byte order) accessors over [bytes] buffers.

    All offsets are absolute byte offsets into the buffer.  Every accessor
    raises [Invalid_argument] when the access would fall outside the buffer,
    mirroring the behaviour of the standard library. *)

val get_u8 : bytes -> int -> int
(** [get_u8 buf off] reads one byte as an unsigned integer in [0, 255]. *)

val set_u8 : bytes -> int -> int -> unit
(** [set_u8 buf off v] writes the low 8 bits of [v]. *)

val get_u16 : bytes -> int -> int
(** [get_u16 buf off] reads a big-endian 16-bit unsigned integer. *)

val set_u16 : bytes -> int -> int -> unit
(** [set_u16 buf off v] writes the low 16 bits of [v] big-endian. *)

val get_u32 : bytes -> int -> int
(** [get_u32 buf off] reads a big-endian 32-bit unsigned integer, in
    [\[0, 2^32)]. *)

val set_u32 : bytes -> int -> int -> unit
(** [set_u32 buf off v] writes the low 32 bits of [v] big-endian. *)

val blit_string : string -> bytes -> int -> unit
(** [blit_string s buf off] copies all of [s] into [buf] starting at [off]. *)
