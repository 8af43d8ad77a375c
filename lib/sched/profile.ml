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
  (* the last floor search: [hint_floor] was the floor index of
     [hint_time], and stays a lower bound of it: boundaries are only ever
     inserted, which moves no time at or below [hint_floor] up *)
  mutable hint_time : int;
  mutable hint_floor : int;
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
    hint_time = min_int;
    hint_floor = -1;
  }

let capacity t = t.capacity
let clear t =
  t.n <- 0;
  t.hint_time <- min_int;
  t.hint_floor <- -1

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

let copy_into ~src dst =
  if src.capacity <> dst.capacity then
    invalid_arg "Profile.copy_into: capacities differ";
  if Array.length dst.times < src.n then begin
    let cap = Array.length src.times in
    dst.times <- Array.make cap 0;
    dst.usage <- Array.make cap 0
  end;
  copy_prefix src.times dst.times src.n;
  copy_prefix src.usage dst.usage src.n;
  dst.n <- src.n;
  dst.hint_time <- src.hint_time;
  dst.hint_floor <- src.hint_floor

(* Rightmost index i with times.(i) <= time, or -1, searching (lo, hi].
   [mid] stays in [0, n), and [n] never exceeds the arrays' length. *)
let bisect times ~lo ~hi time =
  let lo = ref (lo + 1) and hi = ref hi and res = ref lo in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get times mid <= time then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !res

(* Rightmost index i with times.(i) <= time, or -1.  A list scheduler asks
   for the same time over and over (every task of a phase fits from the
   job's est, most jobs' est is the clock) or for times that only grow, so
   a search at or after the last one walks a few steps from its answer and
   bisects only the rest.  The walk's reads are below [n]. *)
let floor_index t time =
  let times = t.times and n = t.n in
  let res =
    if time >= t.hint_time then begin
      let i = ref t.hint_floor and steps = ref 0 in
      while
        !steps < 4 && !i + 1 < n && Array.unsafe_get times (!i + 1) <= time
      do
        incr i;
        incr steps
      done;
      if !steps < 4 then !i else bisect times ~lo:!i ~hi:(n - 1) time
    end
    else bisect times ~lo:(-1) ~hi:(n - 1) time
  in
  t.hint_time <- time;
  t.hint_floor <- res;
  res

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
   boundaries are inserted in one pass over the tail.

   Unchecked accesses: every caller passes [0 <= pos <= e <= n] ([pos] and
   [e] come from [floor_index] and a scan bounded by [n]), [n] never
   exceeds the arrays' length, and [grow] makes room for the inserted
   boundaries first, so every index below stays under [n + shift]. *)
let occupy_window t ~start ~finish ~at ~e ~amount =
  let n = t.n in
  let new_start = at < 0 in
  let pos = if new_start then -at - 1 else at in
  let new_end = not (e < n && Array.unsafe_get t.times e = finish) in
  let d = Bool.to_int new_start in
  let shift = d + Bool.to_int new_end in
  let end_level = if e > 0 then Array.unsafe_get t.usage (e - 1) else 0 in
  if shift > 0 then begin
    grow t shift;
    shift_right t ~from:e ~to_:n ~by:shift;
    let times = t.times and usage = t.usage in
    if new_end then begin
      Array.unsafe_set times (e + d) finish;
      Array.unsafe_set usage (e + d) end_level
    end;
    if new_start then begin
      shift_right t ~from:pos ~to_:e ~by:1;
      Array.unsafe_set times pos start;
      Array.unsafe_set usage pos
        (if pos > 0 then Array.unsafe_get usage (pos - 1) else 0)
    end;
    t.n <- n + shift
  end;
  let usage = t.usage in
  for k = pos to e + d - 1 do
    Array.unsafe_set usage k (Array.unsafe_get usage k + amount)
  done

(* Index of the boundary at [time], or [-pos - 1] when it is absent and
   belongs at [pos]. *)
let boundary_at t time =
  let f = floor_index t time in
  if f >= 0 && t.times.(f) = time then f else -f - 2

let add t ~start ~duration ~amount =
  if duration < 0 then invalid_arg "Profile.add: negative duration";
  if amount < 0 then invalid_arg "Profile.add: negative amount";
  if duration > 0 && amount > 0 then begin
    let at = boundary_at t start in
    let finish = start + duration in
    let e = ref (if at >= 0 then at + 1 else -at - 1) in
    let times = t.times and n = t.n in
    (* [!e < n] before each read *)
    while !e < n && Array.unsafe_get times !e < finish do
      incr e
    done;
    occupy_window t ~start ~finish ~at ~e:!e ~amount
  end

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
  (* unchecked reads: [floor] is -1 or below [n], every [!i] read is
     tested below [n] first, and a restart happens only after a read at an
     index below [n], so [n - 1] is one too *)
  let at =
    ref
      (if floor >= 0 && Array.unsafe_get times floor = from then floor
       else -floor - 2)
  in
  let i = ref (floor + 1) in
  (* invariant, outside a restart: usage is <= limit on
     [candidate, times.(i)).  A restart moves past the congestion, to the
     next step where usage drops low enough.  No local closure: the refs
     stay in registers. *)
  let restart = ref (floor >= 0 && Array.unsafe_get usage floor > limit) in
  let searching = ref true in
  while !searching do
    if !restart then begin
      while !i < n && Array.unsafe_get usage !i > limit do
        incr i
      done;
      at := if !i < n then !i else n - 1;
      candidate := Array.unsafe_get times !at;
      incr i;
      restart := false
    end
    else if !i >= n || Array.unsafe_get times !i >= !candidate + duration then
      (* window [candidate, candidate+duration) is clear *)
      searching := false
    else if Array.unsafe_get usage !i > limit then restart := true
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
