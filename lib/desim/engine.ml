(* The future event list is a binary min-heap of the pending events only.
   An event lives in a slot, recycled once it fires or is cancelled, so the
   per-slot arrays grow with the most events pending at once, not with the
   events of the whole run.  Its handle packs a sequence number, handed out
   in scheduling order, above the slot: handles compare as their sequence
   numbers, and a stale handle (its event gone, its slot reused) no longer
   matches the handle stored in the heap.  The heap orders (key, handle),
   the key packing (at, rank), so ties on the key fire in insertion order.
   Cancelling takes the event out of the heap at once: [pending] is the
   heap's size, the next event is its root, and popping allocates
   nothing. *)

type t = {
  mutable clock : int;
  mutable keys : int array; (* heap position -> packed (at, rank) *)
  mutable events : int array; (* heap position -> handle *)
  mutable size : int;
  mutable pos : int array; (* slot -> heap position, -1 when free *)
  mutable actions : (t -> unit) array; (* slot -> action, [nop] when free *)
  mutable free : int array; (* free slots, a stack *)
  mutable n_free : int;
  mutable n_slots : int; (* slots ever used *)
  mutable next_seq : int;
  mutable executed : int; (* events fired so far *)
}

type handle = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = max_int lsr slot_bits
let none = -1
let nop (_ : t) = ()
let initial_capacity = 64

let create ?(start_time = 0) () =
  {
    clock = start_time;
    keys = Array.make initial_capacity 0;
    events = Array.make initial_capacity 0;
    size = 0;
    pos = Array.make initial_capacity (-1);
    actions = Array.make initial_capacity nop;
    free = Array.make initial_capacity 0;
    n_free = 0;
    n_slots = 0;
    next_seq = 0;
    executed = 0;
  }

let now t = t.clock

(* Events at the same instant fire in (rank, insertion order): ranks let a
   simulation express that e.g. task completions must be processed before
   task starts scheduled for the same time.  The heap key packs
   (at, rank) into one int; virtual times therefore must stay below 2^59. *)
let max_rank = 3

let pack ~at ~rank = (at lsl 2) lor rank

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* (k, h) sorts before the event at heap position [j] *)
let before t k h j =
  let kj = t.keys.(j) in
  k < kj || (k = kj && h < t.events.(j))

let place t p k h =
  t.keys.(p) <- k;
  t.events.(p) <- h;
  t.pos.(h land slot_mask) <- p

(* Move the event (k, h) up from the hole at [p] to its place. *)
let rec sift_up t p k h =
  if p > 0 then begin
    let parent = (p - 1) / 2 in
    if before t k h parent then begin
      place t p t.keys.(parent) t.events.(parent);
      sift_up t parent k h
    end
    else place t p k h
  end
  else place t p k h

(* Move the event (k, h) down from the hole at [p] to its place. *)
let rec sift_down t p k h =
  let left = (2 * p) + 1 in
  if left >= t.size then place t p k h
  else begin
    let right = left + 1 in
    let child =
      if right < t.size && before t t.keys.(right) t.events.(right) left then
        right
      else left
    in
    if before t k h child then place t p k h
    else begin
      place t p t.keys.(child) t.events.(child);
      sift_down t child k h
    end
  end

(* Put the event (k, h) in the hole at [p], up or down to its place. *)
let settle t p k h =
  if p > 0 && before t k h ((p - 1) / 2) then sift_up t p k h
  else sift_down t p k h

(* Take the event at heap position [p] out of the queue and free its slot:
   the last event fills the hole. *)
let remove t p =
  let slot = t.events.(p) land slot_mask in
  t.pos.(slot) <- -1;
  t.actions.(slot) <- nop;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  let last = t.size - 1 in
  t.size <- last;
  if p < last then settle t p t.keys.(last) t.events.(last)

(* The heap position of a pending event's handle, or -1. *)
let position t h =
  if h < 0 then -1
  else begin
    let slot = h land slot_mask in
    if slot >= t.n_slots then -1
    else
      let p = t.pos.(slot) in
      if p >= 0 && t.events.(p) = h then p else -1
  end

(* The sequence part of a new handle, after checking the arguments; [fn]
   names the caller in errors. *)
let next_seq t ~fn ~at ~rank =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.%s: at=%d is before now=%d" fn at t.clock);
  if rank < 0 || rank > max_rank then
    invalid_arg (Printf.sprintf "Engine.%s: rank out of range" fn);
  let seq = t.next_seq in
  if seq > max_seq then failwith "Engine: sequence numbers exhausted";
  t.next_seq <- seq + 1;
  seq lsl slot_bits

let alloc_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let slot = t.n_slots in
    if slot > slot_mask then failwith "Engine: too many pending events";
    (* the heap holds at most one event per slot *)
    if slot = Array.length t.pos then begin
      t.pos <- grow t.pos (-1);
      t.actions <- grow t.actions nop;
      t.free <- grow t.free 0;
      t.keys <- grow t.keys 0;
      t.events <- grow t.events 0
    end;
    t.n_slots <- slot + 1;
    slot
  end

let schedule ?(rank = 1) t ~at action =
  let seq = next_seq t ~fn:"schedule" ~at ~rank in
  let slot = alloc_slot t in
  t.actions.(slot) <- action;
  let p = t.size in
  t.size <- p + 1;
  let h = seq lor slot in
  sift_up t p (pack ~at ~rank) h;
  h

(* A pending event moves in one sift: it keeps its slot and heap position
   and takes the new key and a fresh handle, so it orders as a newly
   scheduled event would. *)
let reschedule ?(rank = 1) t handle ~at action =
  let p = position t handle in
  if p < 0 then schedule ~rank t ~at action
  else begin
    let slot = handle land slot_mask in
    let h = next_seq t ~fn:"reschedule" ~at ~rank lor slot in
    t.actions.(slot) <- action;
    settle t p (pack ~at ~rank) h;
    h
  end

let schedule_after ?rank t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule ?rank t ~at:(t.clock + delay) action

(* Cancelling an event that already fired (or was already cancelled), or
   [none], is a no-op by design: handles may be kept past the event's
   lifetime. *)
let cancel t handle =
  let p = position t handle in
  if p >= 0 then remove t p

let pending t = t.size

let step t =
  if t.size = 0 then false
  else begin
    let action = t.actions.(t.events.(0) land slot_mask) in
    t.clock <- t.keys.(0) asr 2;
    remove t 0;
    t.executed <- t.executed + 1;
    (* Simulated-vs-wall-clock telemetry: a counter sample every 4096
       events is dense enough to plot and far too sparse to slow the
       untraced loop (one land + branch per event). *)
    if t.executed land 4095 = 0 && Obs.Trace.enabled () then
      Obs.Trace.counter ~cat:"sim" "sim-clock"
        [
          ("sim_ms", float_of_int t.clock);
          ("pending", float_of_int t.size);
        ];
    action t;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while t.size > 0 && t.keys.(0) asr 2 <= horizon do
        ignore (step t)
      done;
      t.clock <- max t.clock horizon

let run_until_empty t = run t
let events_executed t = t.executed
