(* The profile is a piecewise-constant usage function stored as two parallel
   sorted arrays: [times.(i)] is a step boundary and [usage.(i)] the units in
   use on [times.(i), times.(i+1)) (and beyond, for the last step).  Usage is
   0 before the first boundary.  Storing running usage (not deltas) lets
   queries binary-search a boundary and scan only the steps inside the window
   of interest, which keeps the greedy schedulers and the CP timetable fast
   even with tens of thousands of tasks.

   Steps are moved by plain loops rather than [Array.blit]: on a large array,
   which lives in the major heap, a blit goes through the write barrier once
   per element, while a store into an [int array] needs none. *)

type t = {
  capacity : int;
  mutable times : int array;
  mutable usage : int array;
  mutable n : int;
  (* out-parameters of the last [scan], so that [place] reuses the indices
     the fit found without allocating a tuple *)
  mutable fit_at : int;
  mutable fit_end : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Profile.create: capacity must be > 0";
  {
    capacity;
    times = Array.make 16 0;
    usage = Array.make 16 0;
    n = 0;
    fit_at = 0;
    fit_end = 0;
  }

let capacity t = t.capacity

(* [dst.(i) <- src.(i)] for [i < n] *)
let copy_prefix src dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let copy t =
  let cap = Array.length t.times in
  let times = Array.make cap 0 and usage = Array.make cap 0 in
  copy_prefix t.times times t.n;
  copy_prefix t.usage usage t.n;
  { t with times; usage }

(* Rightmost index i with times.(i) <= time, or -1. *)
let floor_index t time =
  let lo = ref 0 and hi = ref (t.n - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(mid) <= time then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

let usage_at t time =
  let i = floor_index t time in
  if i < 0 then 0 else t.usage.(i)

(* Room for [extra] (at most 16) more steps: the capacity doubles. *)
let grow t extra =
  if t.n + extra > Array.length t.times then begin
    let cap' = 2 * Array.length t.times in
    let times' = Array.make cap' 0 and usage' = Array.make cap' 0 in
    copy_prefix t.times times' t.n;
    copy_prefix t.usage usage' t.n;
    t.times <- times';
    t.usage <- usage'
  end

(* Move steps [from, to_) right by [by] (the arrays have the room). *)
let shift_right t ~from ~to_ ~by =
  let times = t.times and usage = t.usage in
  for k = to_ - 1 downto from do
    Array.unsafe_set times (k + by) (Array.unsafe_get times k);
    Array.unsafe_set usage (k + by) (Array.unsafe_get usage k)
  done

(* Add [amount] on [start, finish), given where the boundaries are: [at]
   is the index of the boundary at [start], or [-pos - 1] when one must be
   inserted at [pos]; [e] is the first index at or past [finish] (every
   boundary strictly between lies inside the window).  The missing
   boundaries are inserted in one pass over the tail. *)
let occupy_window t ~start ~finish ~at ~e ~amount =
  let n = t.n in
  let new_start = at < 0 in
  let pos = if new_start then -at - 1 else at in
  let new_end = not (e < n && t.times.(e) = finish) in
  let d = Bool.to_int new_start in
  let shift = d + Bool.to_int new_end in
  let end_level = if e > 0 then t.usage.(e - 1) else 0 in
  if shift > 0 then begin
    grow t shift;
    shift_right t ~from:e ~to_:n ~by:shift;
    if new_end then begin
      t.times.(e + d) <- finish;
      t.usage.(e + d) <- end_level
    end;
    if new_start then begin
      shift_right t ~from:pos ~to_:e ~by:1;
      t.times.(pos) <- start;
      t.usage.(pos) <- (if pos > 0 then t.usage.(pos - 1) else 0)
    end;
    t.n <- n + shift
  end;
  let usage = t.usage in
  for k = pos to e + d - 1 do
    usage.(k) <- usage.(k) + amount
  done

(* Index of the boundary at [time], or [-pos - 1] when it is absent and
   belongs at [pos]. *)
let boundary_at t time =
  let f = floor_index t time in
  if f >= 0 && t.times.(f) = time then f else -f - 2

let apply t ~start ~duration ~amount =
  if duration > 0 && amount <> 0 then begin
    let at = boundary_at t start in
    let finish = start + duration in
    let e = ref (if at >= 0 then at + 1 else -at - 1) in
    while !e < t.n && t.times.(!e) < finish do
      incr e
    done;
    occupy_window t ~start ~finish ~at ~e:!e ~amount
  end

let add t ~start ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.add: negative duration";
  if amount < 0 then invalid_arg "Profile.add: negative amount";
  apply t ~start ~duration ~amount

let remove t ~start ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.remove: negative duration";
  if amount < 0 then invalid_arg "Profile.remove: negative amount";
  apply t ~start ~duration ~amount:(-amount)

let fits t ~start ~duration ~amount =
  if duration <= 0 || amount = 0 then true
  else begin
    let finish = start + duration in
    let i = floor_index t start in
    let ok = ref true in
    if i >= 0 && t.usage.(i) + amount > t.capacity then ok := false;
    let j = ref (i + 1) in
    while !ok && !j < t.n && t.times.(!j) < finish do
      if t.usage.(!j) + amount > t.capacity then ok := false;
      incr j
    done;
    !ok
  end

(* The earliest-fit scan shared by [earliest_fit] and [place].  Returns the
   start and leaves in [fit_at] the index of the boundary at that start, or
   [-pos - 1] when the start is [from] and a boundary must be inserted at
   [pos] first, and in [fit_end] the first boundary index at or past the
   window's end (or [n]): every boundary strictly between the two lies
   inside the window. *)
let scan t ~from ~duration ~amount =
  let limit = t.capacity - amount in
  let times = t.times and usage = t.usage and n = t.n in
  let floor = floor_index t from in
  let candidate = ref from in
  let at =
    ref (if floor >= 0 && times.(floor) = from then floor else -floor - 2)
  in
  let i = ref (floor + 1) in
  (* restart after the congestion: at the next step where usage drops low
     enough *)
  let skip () =
    while !i < n && usage.(!i) > limit do
      incr i
    done;
    at := if !i < n then !i else n - 1;
    candidate := times.(!at);
    incr i
  in
  (* invariant: usage is <= limit on [candidate, times.(i)) *)
  if floor >= 0 && usage.(floor) > limit then skip ();
  let searching = ref true in
  while !searching do
    if !i >= n || times.(!i) >= !candidate + duration then
      (* window [candidate, candidate+duration) is clear *)
      searching := false
    else if usage.(!i) > limit then skip ()
    else incr i
  done;
  t.fit_at <- !at;
  t.fit_end <- !i;
  !candidate

let earliest_fit t ~from ~duration ~amount =
  if duration <= 0 || amount = 0 then from
  else if amount > t.capacity then
    invalid_arg "Profile.earliest_fit: amount exceeds capacity"
  else scan t ~from ~duration ~amount

let place t ~from ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.place: negative duration";
  if amount < 0 then invalid_arg "Profile.place: negative amount";
  if duration = 0 || amount = 0 then from
  else if amount > t.capacity then
    invalid_arg "Profile.place: amount exceeds capacity"
  else begin
    let start = scan t ~from ~duration ~amount in
    occupy_window t ~start ~finish:(start + duration) ~at:t.fit_at
      ~e:t.fit_end ~amount;
    start
  end

let max_usage t =
  let peak = ref 0 in
  for i = 0 to t.n - 1 do
    if t.usage.(i) > !peak then peak := t.usage.(i)
  done;
  !peak

let steps t = List.init t.n (fun i -> (t.times.(i), t.usage.(i)))
