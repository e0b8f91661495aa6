type msg = Nf_fault of string | Apply of (int -> Speedybox.Runtime.t -> unit)

type inbox = {
  lock : Mutex.t;
  mutable queue : msg list;  (* newest-first; reversed at drain *)
  mutable drained : int;
  pending : bool Atomic.t;
      (* mirrors [queue <> []]: executors drain at every batch boundary
         and messages are rare, so the empty case must cost one atomic
         load, not a mutex round-trip *)
}

type t = inbox array

let create ~shards =
  if shards < 1 then invalid_arg "Control.create: shards must be positive";
  Array.init shards (fun _ ->
      { lock = Mutex.create (); queue = []; drained = 0; pending = Atomic.make false })

let post t ~shard msg =
  let inbox = t.(shard) in
  Mutex.lock inbox.lock;
  inbox.queue <- msg :: inbox.queue;
  Atomic.set inbox.pending true;
  Mutex.unlock inbox.lock

let broadcast t ?(from = -1) msg =
  Array.iteri (fun i _ -> if i <> from then post t ~shard:i msg) t

let drain t ~shard handler =
  let inbox = t.(shard) in
  if not (Atomic.get inbox.pending) then 0
  else begin
    (* Snapshot under the lock, handle outside it: handlers may post
       further messages (a drained fault can trigger a broadcast) without
       deadlock — those re-raise [pending] for the next drain. *)
    Mutex.lock inbox.lock;
    let batch = List.rev inbox.queue in
    inbox.queue <- [];
    Atomic.set inbox.pending false;
    Mutex.unlock inbox.lock;
    let n = List.length batch in
    inbox.drained <- inbox.drained + n;
    List.iter handler batch;
    n
  end

let absorbed t ~shard = t.(shard).drained
