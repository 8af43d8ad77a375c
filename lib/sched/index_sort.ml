(* Ranges up to this length are insertion-sorted: on a few dozen entries it
   beats the merge sort's copying, and it is the whole job on the short
   ranges the scheduler sorts every pass.  The comparisons are written out
   at each use rather than through a helper: without flambda a helper taking
   the key arrays is a real call per comparison. *)
let insertion_limit = 16

(* Unchecked reads: [sort] checked the range against [a] and every entry
   of it against [key] and [tie]; the passes below only move entries
   within [lo, hi) and through [buf], which holds the same entries. *)
let insertion a lo hi (key : int array) (tie : int array) =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let kx = Array.unsafe_get key x and tx = Array.unsafe_get tie x in
    let j = ref (i - 1) and moving = ref true in
    while !moving && !j >= lo do
      let y = Array.unsafe_get a !j in
      let ky = Array.unsafe_get key y in
      if ky > kx || (ky = kx && Array.unsafe_get tie y > tx) then begin
        Array.unsafe_set a (!j + 1) y;
        decr j
      end
      else moving := false
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Top-down merge sort of [a.(lo..hi-1)] through [buf] (same indices);
   stable: a right-run entry goes first only when strictly before. *)
let rec merge_sort a buf lo hi key tie =
  if hi - lo <= insertion_limit then insertion a lo hi key tie
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort a buf lo mid key tie;
    merge_sort a buf mid hi key tie;
    Array.blit a lo buf lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      let take_left =
        !i < mid
        && (!j >= hi
           ||
           let x = Array.unsafe_get buf !i and y = Array.unsafe_get buf !j in
           let kx = Array.unsafe_get key x and ky = Array.unsafe_get key y in
           kx < ky
           || (kx = ky && Array.unsafe_get tie x <= Array.unsafe_get tie y))
      in
      if take_left then begin
        Array.unsafe_set a k (Array.unsafe_get buf !i);
        incr i
      end
      else begin
        Array.unsafe_set a k (Array.unsafe_get buf !j);
        incr j
      end
    done
  end

let sort a ~lo ~hi ~key ~tie =
  if lo < 0 || hi > Array.length a || lo > hi then
    invalid_arg "Index_sort.sort: range outside the array";
  let bound = min (Array.length key) (Array.length tie) in
  for k = lo to hi - 1 do
    let x = Array.unsafe_get a k in
    if x < 0 || x >= bound then
      invalid_arg "Index_sort.sort: entry outside the key arrays"
  done;
  if hi - lo <= insertion_limit then insertion a lo hi key tie
  else merge_sort a (Array.make (Array.length a) 0) lo hi key tie
