(** A hierarchical timer wheel over the arrival-cycle clock.

    Replaces the linear recency-list sweep for idle-flow expiry: arming a
    timer, advancing the clock past an empty stretch, and firing are all
    O(1) amortised, independent of how many flows are live — which is what
    keeps per-packet latency flat at a million tracked flows.

    The wheel quantises time into ticks of [2^tick_shift] cycles and keeps
    four levels of 256 slots each; level [l] slots span [256^l] ticks, and
    entries cascade down a level each time the lower digits of the tick
    counter wrap.  An entry therefore fires within one tick of its
    deadline (never early), and a deadline beyond the ~[2^(tick_shift+32)]
    cycle horizon fires early and is expected to be re-armed by the
    callback.

    Timers are one-shot: {!advance} hands each due entry to the callback,
    which either lets it die ([`Expire]) or re-arms it at a new deadline
    ([`Rearm]).  There is no cancel — callers tag entries with a [stamp]
    (incarnation number) instead and treat a stale stamp as already
    cancelled, which is cheaper than finding the entry in its slot. *)

type t

type action = Expire | Rearm of int  (** [Rearm deadline] re-arms the entry. *)

val create : tick_shift:int -> t
(** [tick_shift] is the log2 of the cycles per level-0 tick; pick it so the
    typical timeout spans at most a few hundred ticks. *)

val tick_shift_for_timeout : int -> int
(** A good [tick_shift] for a given idle timeout in cycles: the timeout
    spans roughly one level-0 revolution (256 ticks). *)

val length : t -> int
(** Armed entries, including stale-stamp ones not yet collected. *)

val add : t -> key:Fid.t -> stamp:int -> deadline:int -> unit
(** Arms a one-shot timer.  [deadline] is in cycles; a deadline at or
    before the current clock fires on the next {!advance}. *)

val advance : t -> now:int -> (Fid.t -> int -> action) -> unit
(** Moves the clock to [now] (cycles), calling [fire key stamp] for every
    entry whose slot the clock passes.  The callback may {!add} new
    entries; re-arming the fired entry goes through the [Rearm] return
    instead.  Clocks never move backwards: an older [now] is a no-op. *)

val behind : t -> now:int -> bool
(** Whether [advance t ~now] would move the clock at all; when [false] it
    is a no-op, so a caller can skip building its callback. *)

val due : t -> now:int -> bool
(** Whether [advance t ~now] would fire or cascade any entry.  [false]
    guarantees the call hands nothing to its callback. *)

val clear : t -> unit
(** Drops every armed entry without firing. *)
