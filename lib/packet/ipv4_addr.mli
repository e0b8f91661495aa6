(** IPv4 addresses and CIDR prefixes.

    An address is an immediate [int] in [\[0, 2^32)], most significant
    octet first: ["10.0.0.1"] is [0x0A000001].  Being immediate, an
    address costs no allocation to read from a packet, store in a record
    or pass between modules, and a 5-tuple record holding two of
    them is six words.  The type is private: [(a :> int)] reads the
    value, and {!of_int} is the only way to make one from an int. *)

type t = private int

val of_int : int -> t
(** [of_int v] is the address whose 32 bits are the low 32 bits of [v]. *)

val of_string : string -> t
(** [of_string "a.b.c.d"] parses a dotted-quad address.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d]; each octet must be in [0, 255]. *)

val compare : t -> t -> int
(** Address order, so ["128.0.0.1"] sorts after ["1.0.0.1"]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** A CIDR prefix such as [10.1.0.0/16]. *)
module Prefix : sig
  type addr = t

  type t = { base : addr; bits : int }

  val make : addr -> int -> t
  (** [make addr bits] normalises [addr] by masking off host bits.
      @raise Invalid_argument unless [0 <= bits <= 32]. *)

  val of_string : string -> t
  (** Parses ["a.b.c.d/len"]; a bare address is treated as a /32. *)

  val matches : t -> addr -> bool
  (** [matches p a] is true when [a] falls inside prefix [p]. *)

  val to_string : t -> string

  val pp : Format.formatter -> t -> unit
end
