(* The profile is a piecewise-constant usage function stored as two parallel
   sorted arrays: [times.(i)] is a step boundary and [usage.(i)] the units in
   use on [times.(i), times.(i+1)) (and beyond, for the last step).  Usage is
   0 before the first boundary.  Storing running usage (not deltas) lets
   queries binary-search a boundary and scan only the steps inside the window
   of interest, which keeps the greedy schedulers and the CP timetable fast
   even with tens of thousands of tasks. *)

type t = {
  capacity : int;
  mutable times : int array;
  mutable usage : int array;
  mutable n : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Profile.create: capacity must be > 0";
  { capacity; times = Array.make 16 0; usage = Array.make 16 0; n = 0 }

let capacity t = t.capacity

let copy t =
  { t with times = Array.copy t.times; usage = Array.copy t.usage }

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

let grow t =
  if t.n = Array.length t.times then begin
    let cap' = max 32 (2 * t.n) in
    let times' = Array.make cap' 0 and usage' = Array.make cap' 0 in
    Array.blit t.times 0 times' 0 t.n;
    Array.blit t.usage 0 usage' 0 t.n;
    t.times <- times';
    t.usage <- usage'
  end

(* Index of the boundary at exactly [time], inserting one if absent (the new
   step initially copies the usage level in force at [time]). *)
let ensure_boundary t time =
  let i = floor_index t time in
  if i >= 0 && t.times.(i) = time then i
  else begin
    grow t;
    let pos = i + 1 in
    let level = if i < 0 then 0 else t.usage.(i) in
    Array.blit t.times pos t.times (pos + 1) (t.n - pos);
    Array.blit t.usage pos t.usage (pos + 1) (t.n - pos);
    t.times.(pos) <- time;
    t.usage.(pos) <- level;
    t.n <- t.n + 1;
    pos
  end

let apply t ~start ~duration ~amount =
  if duration > 0 && amount <> 0 then begin
    let i = ensure_boundary t start in
    let j = ensure_boundary t (start + duration) in
    for k = i to j - 1 do
      t.usage.(k) <- t.usage.(k) + amount
    done
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

let earliest_fit t ~from ~duration ~amount =
  if duration <= 0 || amount = 0 then from
  else if amount > t.capacity then
    invalid_arg "Profile.earliest_fit: amount exceeds capacity"
  else begin
    let limit = t.capacity - amount in
    let candidate = ref from in
    let i = ref (floor_index t from + 1) in
    (* invariant: usage is <= limit on [candidate, times.(i)) *)
    if !i > 0 && t.usage.(!i - 1) > limit then begin
      (* the segment containing [from] is too full: jump to the next step
         where usage drops low enough *)
      while !i < t.n && t.usage.(!i) > limit do
        incr i
      done;
      candidate := (if !i < t.n then t.times.(!i) else t.times.(t.n - 1));
      incr i
    end;
    let result = ref None in
    while !result = None do
      if !i >= t.n || t.times.(!i) >= !candidate + duration then
        (* window [candidate, candidate+duration) is clear *)
        result := Some !candidate
      else if t.usage.(!i) > limit then begin
        (* violation inside the window: restart after the congestion *)
        while !i < t.n && t.usage.(!i) > limit do
          incr i
        done;
        candidate := (if !i < t.n then t.times.(!i) else t.times.(t.n - 1));
        incr i
      end
      else incr i
    done;
    Option.get !result
  end

let max_usage t =
  let peak = ref 0 in
  for i = 0 to t.n - 1 do
    if t.usage.(i) > !peak then peak := t.usage.(i)
  done;
  !peak

let steps t = List.init t.n (fun i -> (t.times.(i), t.usage.(i)))
