(** VPN gateway NFs exercising the encap/decap header actions (§IV-A1):
    an encapsulator adds an authentication header (a per-flow SPI) to every
    packet of a flow, a decapsulator strips and verifies it — the paper's
    AH example.  A chain containing both demonstrates the consolidation
    stack rule: adjacent encap/decap of the same header cancel, so the fast
    path touches the packet not at all.

    (Real AH carries a per-packet sequence number; a per-flow header action
    must be packet-independent, so this gateway keeps the sequence at zero
    — the same simplification a per-flow MAT rule forces on any NFV
    fast-path system.) *)

type t

val encapsulator : ?name:string -> ?spi_base:int32 -> unit -> t
(** Allocates one SPI per flow, starting at [spi_base] (default 1000). *)

val decapsulator : ?name:string -> unit -> t
(** Pops the outermost header when it is an authentication header; drops
    the packet otherwise (authentication failure). *)

val name : t -> string

val nf : t -> Speedybox.Nf.t

val auth_failures : t -> int
(** Packets a decapsulator dropped for lacking a valid header. *)
