type 'a t = { items : 'a array; mutable len : int; filler : 'a; scrub : 'a -> unit }

let create ~cap ~scrub filler = { items = Array.make cap filler; len = 0; filler; scrub }

let is_empty t = t.len = 0

let push t x =
  if t.len < Array.length t.items then begin
    t.scrub x;
    Array.unsafe_set t.items t.len x;
    t.len <- t.len + 1
  end

(* The vacated slot gets the filler back, so a record handed out and
   later dropped is not kept alive by the stack. *)
let pop t =
  if t.len = 0 then invalid_arg "Free_stack.pop: empty";
  t.len <- t.len - 1;
  let x = Array.unsafe_get t.items t.len in
  Array.unsafe_set t.items t.len t.filler;
  x
