type term = { start : Store.var; duration : int; demand : int }

let ge_offset s y x c =
  let pid =
    Store.register s ~priority:0 ~name:"ge_offset" ~idempotent:true (fun s ->
        Store.set_min s y (Store.min_of s x + c);
        Store.set_max s x (Store.max_of s y - c))
  in
  (* the rule only reads x's lower and y's upper bound *)
  Store.watch_min s x pid;
  Store.watch_max s y pid;
  Store.schedule s pid

let precedence s ~before ~duration ~after = ge_offset s after before duration

let max_of s ~result ~vars ~offsets ~floor =
  let n = Array.length vars in
  if Array.length offsets <> n then
    invalid_arg "Propagators.max_of: one offset per variable expected";
  if n = 0 then begin
    (* result is the constant floor *)
    let pid =
      Store.register s ~priority:0 ~name:"max_of" ~idempotent:true (fun s ->
          Store.set_min s result floor;
          Store.set_max s result floor)
    in
    Store.schedule s pid
  end
  else begin
    let pid =
      Store.register s ~priority:1 ~name:"max_of" ~idempotent:true (fun s ->
          let mins = Store.mins s and maxs = Store.maxs s in
          (* result >= every term and >= floor *)
          let max_min = ref floor and max_max = ref floor in
          for k = 0 to n - 1 do
            let x = vars.(k) and c = offsets.(k) in
            let mn = mins.(x) + c and mx = maxs.(x) + c in
            if mn > !max_min then max_min := mn;
            if mx > !max_max then max_max := mx
          done;
          if !max_min > mins.(result) then Store.set_min s result !max_min;
          if !max_max < maxs.(result) then Store.set_max s result !max_max;
          (* every term <= result *)
          let ub = maxs.(result) in
          for k = 0 to n - 1 do
            let x = vars.(k) and c = offsets.(k) in
            if ub - c < maxs.(x) then Store.set_max s x (ub - c)
          done)
    in
    (* reads both bounds of the terms but only result's upper bound (no
       rule propagates from result's min back to the terms) *)
    Array.iter (fun x -> Store.watch s x pid) vars;
    Store.watch_max s result pid;
    Store.schedule s pid
  end

let lateness s ~late ~completion ~deadline =
  let pid =
    Store.register s ~priority:0 ~name:"lateness" ~idempotent:true (fun s ->
        if Store.min_of s completion > deadline then Store.set_min s late 1;
        if Store.max_of s late = 0 then Store.set_max s completion deadline;
        if Store.max_of s completion <= deadline then Store.set_max s late 0)
  in
  (* reads completion's min and max, but only late's upper bound *)
  Store.watch s completion pid;
  Store.watch_max s late pid;
  Store.schedule s pid

(* --- the time table ---------------------------------------------------- *)

(* Time-table propagation for constraints (5)/(6): the compulsory parts of
   a pool's tasks ([lst, est + duration), when non-empty) summed into a
   segment profile; the pool fails where usage exceeds the capacity, and
   each task's start is pushed past the segments that leave no room for its
   demand beside the other tasks' parts.  A {!Session} registers one pool
   per slot type, grows its registry (job arrivals) and shrinks it
   (completed tasks retracted) between searches.  Frozen occupations are
   registered as root-fixed starts, whose compulsory part is their whole
   execution.  A run costs what changed since the last one rather than the
   size of the pool:

   - The profile is kept, not rebuilt.  It is the sum of the compulsory
     parts the slots last recorded ([dp_comp_lo]/[dp_comp_hi]), held as
     sorted breakpoints: [dp_bp_time.(k)] is a time where [dp_bp_cnt.(k)]
     part ends (starts or finishes) lie, and [dp_bp_use.(k)] the usage from
     it to the next breakpoint (0 past the last).  A part that moves is
     edited in place ([dyn_set_comp]); a breakpoint goes when its last part
     end does, so the segments are exactly those a sweep over the same
     parts finds.
   - Overload is checked where usage rose: under the hull of the usage
     added since the last check that passed ([dp_add_lo], [dp_add_hi]).  A
     failed check keeps the hull: a backtrack and the same fix bring the
     parts that overloaded back without an edit, and the next run must fail
     on them again.
   - Only slots whose bounds may have moved are re-read.  Every bound event
     of a registered start pushes the variable on [dp_dirty] (the store's
     [on_event] hook, own writes included); a run drains that list.  A
     backtrack restores bounds without events, so a run that sees
     {!Store.backtracks} moved since its last one compares every slot
     instead, as does one whose list overflowed.  Either way the refresh
     compares values with the slot's cache.
   - A task marked [dp_pruned] is at its fixpoint against the profile at its
     cached bounds; one whose bounds moved loses its mark in the refresh.
     Lower usage only weakens the rules, so removals keep every mark; an
     addition clears only the marks it can break ([dyn_take_additions]).
     One prune takes a task to its own fixpoint, so it keeps its mark after
     it moved ([dyn_prune]).

   It runs to its own fixpoint, going on while its moves added usage, so it
   is registered idempotent and its own writes never re-queue it.  Every
   bound it reaches is the fixpoint of the textbook kernel that rebuilds
   and sweeps the profile on every run (the test suite's list-based
   reference); only the order of the work differs.

   Unchecked accesses: per-slot arrays are read below [dp_n], which never
   exceeds their length (grown in [dyn_grow]); breakpoint arrays below
   [dp_nbp], with [dp_nbp <= 2 * (parts held) <= 2 * dp_n], one more while
   a moving end holds its old and its new breakpoint, and their length
   twice the registry's plus one, so an insertion at [dp_nbp] fits;
   [dp_dirty] below its length; and [mins]/[maxs] at registered variables,
   which [dyn_add] checked against the store's bound arrays (those only
   grow). *)
type dyn_pool = {
  dp_capacity : int;
  mutable dp_pid : Store.propagator_id option;
  mutable dp_start : Store.var array;
  mutable dp_dur : int array;
  mutable dp_dem : int array;
  mutable dp_n : int;
  (* the largest demand ever registered *)
  mutable dp_max_dem : int;
  (* registry slot of each start variable, -1 when absent; indexed by
     variable *)
  mutable dp_slot : int array;
  (* per slot: the start bounds last read, and the compulsory part
     [lo, hi) the profile holds for it ([max_int] both when none) *)
  mutable dp_cache_est : int array;
  mutable dp_cache_lst : int array;
  mutable dp_comp_lo : int array;
  mutable dp_comp_hi : int array;
  (* slot i is at fixpoint against the profile at its cached bounds *)
  mutable dp_pruned : bool array;
  (* the profile's breakpoints, increasing in time *)
  mutable dp_bp_time : int array;
  mutable dp_bp_cnt : int array;
  mutable dp_bp_use : int array;
  mutable dp_nbp : int;
  (* hull of the usage added since the last overload check that passed;
     empty when lo >= hi.  Outside it the profile is within capacity. *)
  mutable dp_add_lo : int;
  mutable dp_add_hi : int;
  (* the additions themselves, for the marks: [dp_add_at.(3j)] to
     [.(3j + 1)] added by slot [.(3j + 2)], j below [dp_nadd]; more than
     [max_adds] (or any after a failed check) and only the hull counts *)
  dp_add_at : int array;
  mutable dp_nadd : int;
  (* variables with a bound event since they were last refreshed *)
  mutable dp_dirty : int array;
  mutable dp_ndirty : int;
  (* an event found [dp_dirty] full *)
  mutable dp_overflow : bool;
  (* {!Store.backtracks} when the last run read the bounds *)
  mutable dp_backtracks : int;
}

let dyn_pool_pid p = Option.get p.dp_pid

(* First breakpoint in [from, dp_nbp) at or after [x]. *)
let bp_search p from x =
  let time = p.dp_bp_time in
  let lo = ref from and hi = ref p.dp_nbp in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get time mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Add one part end at [x] (at or past breakpoint [from]); returns the
   breakpoint's index.  A new breakpoint splits the segment it falls in,
   so it starts with that segment's usage. *)
let bp_insert p from x =
  let time = p.dp_bp_time and cnt = p.dp_bp_cnt and use = p.dp_bp_use in
  let k = bp_search p from x in
  let n = p.dp_nbp in
  if k < n && Array.unsafe_get time k = x then begin
    Array.unsafe_set cnt k (Array.unsafe_get cnt k + 1);
    k
  end
  else begin
    for j = n downto k + 1 do
      Array.unsafe_set time j (Array.unsafe_get time (j - 1));
      Array.unsafe_set cnt j (Array.unsafe_get cnt (j - 1));
      Array.unsafe_set use j (Array.unsafe_get use (j - 1))
    done;
    Array.unsafe_set time k x;
    Array.unsafe_set cnt k 1;
    Array.unsafe_set use k (if k > 0 then Array.unsafe_get use (k - 1) else 0);
    p.dp_nbp <- n + 1;
    k
  end

(* Drop one part end at breakpoint [k], and the breakpoint with its last
   one: no part starts or finishes there any more, so the usage is the
   same on both sides and the two segments merge. *)
let bp_release p k =
  let time = p.dp_bp_time and cnt = p.dp_bp_cnt and use = p.dp_bp_use in
  let c = Array.unsafe_get cnt k - 1 in
  Array.unsafe_set cnt k c;
  if c = 0 then begin
    let n = p.dp_nbp - 1 in
    for j = k to n - 1 do
      Array.unsafe_set time j (Array.unsafe_get time (j + 1));
      Array.unsafe_set cnt j (Array.unsafe_get cnt (j + 1));
      Array.unsafe_set use j (Array.unsafe_get use (j + 1))
    done;
    p.dp_nbp <- n
  end

let max_adds = 8

(* Slot [i]'s part now covers [lo, hi) where it did not. *)
let note_added p i lo hi =
  if lo < p.dp_add_lo then p.dp_add_lo <- lo;
  if hi > p.dp_add_hi then p.dp_add_hi <- hi;
  let j = p.dp_nadd in
  if j < max_adds then begin
    (* [dp_add_at] has [3 * max_adds] cells *)
    Array.unsafe_set p.dp_add_at (3 * j) lo;
    Array.unsafe_set p.dp_add_at ((3 * j) + 1) hi;
    Array.unsafe_set p.dp_add_at ((3 * j) + 2) i
  end;
  if j <= max_adds then p.dp_nadd <- j + 1

let profile_add p i lo hi dem =
  let klo = bp_insert p 0 lo in
  let khi = bp_insert p (klo + 1) hi in
  let use = p.dp_bp_use in
  for k = klo to khi - 1 do
    Array.unsafe_set use k (Array.unsafe_get use k + dem)
  done;
  note_added p i lo hi

(* [lo, hi) with [dem] was added before, so both ends are breakpoints. *)
let profile_remove p lo hi dem =
  let klo = bp_search p 0 lo in
  let khi = bp_search p (klo + 1) hi in
  let use = p.dp_bp_use in
  for k = klo to khi - 1 do
    Array.unsafe_set use k (Array.unsafe_get use k - dem)
  done;
  bp_release p khi;
  bp_release p klo

(* Move one end of a part from [x] to [x'], which changes the usage
   between them by [d] (the demand when the part grows over them, minus it
   when it leaves them).  A breakpoint that only this end holds slides to
   [x'] while it stays between its neighbours: the segments on either side
   keep their usage, only their border moves. *)
let profile_move_end p i x x' d =
  let time = p.dp_bp_time in
  let k = bp_search p 0 x in
  if
    Array.unsafe_get p.dp_bp_cnt k = 1
    && (k = 0 || Array.unsafe_get time (k - 1) < x')
    && (k + 1 = p.dp_nbp || x' < Array.unsafe_get time (k + 1))
  then Array.unsafe_set time k x'
  else begin
    let k' = bp_insert p 0 x' in
    let k = if x' < x then bp_search p k' x else k in
    let use = p.dp_bp_use in
    for j = min k k' to max k k' - 1 do
      Array.unsafe_set use j (Array.unsafe_get use j + d)
    done;
    bp_release p k
  end;
  if d > 0 then note_added p i (min x x') (max x x')

(* Replace slot [i]'s part in the profile by [lo, hi) ([max_int] for
   none).  A part that moves onto one overlapping its old place moves its
   ends (first [lo], so the part in between, [lo, old_hi), is never
   empty); one that jumps is removed and added again. *)
let dyn_set_comp p i lo hi =
  let dem = Array.unsafe_get p.dp_dem i in
  let old_lo = Array.unsafe_get p.dp_comp_lo i
  and old_hi = Array.unsafe_get p.dp_comp_hi i in
  if old_lo = max_int then profile_add p i lo hi dem
  else if lo = max_int then profile_remove p old_lo old_hi dem
  else if lo < old_hi && old_lo < hi then begin
    if lo <> old_lo then
      profile_move_end p i old_lo lo (if lo < old_lo then dem else -dem);
    if hi <> old_hi then
      profile_move_end p i old_hi hi (if hi > old_hi then dem else -dem)
  end
  else begin
    profile_remove p old_lo old_hi dem;
    profile_add p i lo hi dem
  end;
  Array.unsafe_set p.dp_comp_lo i lo;
  Array.unsafe_set p.dp_comp_hi i hi

(* Bring slot [i]'s cache in line with the store: a task whose bounds
   moved loses its prune mark, and one whose compulsory part moved edits
   the profile.  Returns whether the profile was edited. *)
let dyn_refresh_slot p mins maxs i =
  let dur = Array.unsafe_get p.dp_dur i in
  if dur > 0 && Array.unsafe_get p.dp_dem i > 0 then begin
    let v = Array.unsafe_get p.dp_start i in
    let est = Array.unsafe_get mins v and lst = Array.unsafe_get maxs v in
    if
      est <> Array.unsafe_get p.dp_cache_est i
      || lst <> Array.unsafe_get p.dp_cache_lst i
    then begin
      Array.unsafe_set p.dp_cache_est i est;
      Array.unsafe_set p.dp_cache_lst i lst;
      Array.unsafe_set p.dp_pruned i false;
      let has_comp = lst < est + dur in
      let lo = if has_comp then lst else max_int
      and hi = if has_comp then est + dur else max_int in
      if
        lo <> Array.unsafe_get p.dp_comp_lo i
        || hi <> Array.unsafe_get p.dp_comp_hi i
      then begin
        dyn_set_comp p i lo hi;
        true
      end
      else false
    end
    else false
  end
  else false

(* Refresh the slots the pending events name, or every slot when events
   may be missing; returns the number of profile edits. *)
let dyn_refresh p mins maxs ~all =
  let edits = ref 0 in
  if all || p.dp_overflow then
    for i = 0 to p.dp_n - 1 do
      if dyn_refresh_slot p mins maxs i then incr edits
    done
  else begin
    let dirty = p.dp_dirty and slot = p.dp_slot in
    for k = 0 to p.dp_ndirty - 1 do
      (* a retired variable's slot is -1 *)
      let i = Array.unsafe_get slot (Array.unsafe_get dirty k) in
      if i >= 0 && dyn_refresh_slot p mins maxs i then incr edits
    done
  end;
  p.dp_ndirty <- 0;
  p.dp_overflow <- false;
  !edits

let dyn_note_event p v =
  let n = p.dp_ndirty in
  if n < Array.length p.dp_dirty then begin
    Array.unsafe_set p.dp_dirty n v;
    p.dp_ndirty <- n + 1
  end
  else p.dp_overflow <- true

(* Whether an addition by a slot other than [i] meets [a, b); every
   addition when there were too many to list. *)
let dyn_added_meets p i a b =
  let n = p.dp_nadd in
  if n > max_adds then true
  else begin
    let at = p.dp_add_at in
    let hit = ref false and j = ref 0 in
    while (not !hit) && !j < n do
      let k = 3 * !j in
      if
        a < Array.unsafe_get at (k + 1)
        && b > Array.unsafe_get at k
        && Array.unsafe_get at (k + 2) <> i
      then hit := true;
      incr j
    done;
    !hit
  end

(* Take in the usage added since the last check: fail if a segment under
   its hull exceeds the capacity (keeping the hull), else clear the prune
   marks the additions may have broken.  A point blocks a task when the
   usage there without the task's own part, plus its demand, exceeds the
   capacity; only points where usage was added changed, and of those only
   the ones with [usage + dp_max_dem > capacity] can block any task.  So
   the marks that go are those of the unfixed tasks whose est- or
   lst-window meets an addition by another task inside the hull of these
   hot points: the task's own part never blocks it. *)
let dyn_take_additions p =
  let lo = p.dp_add_lo and hi = p.dp_add_hi in
  if lo < hi then begin
    let use = p.dp_bp_use and time = p.dp_bp_time in
    let cap = p.dp_capacity in
    let hot = cap - p.dp_max_dem in
    let nadd = p.dp_nadd in
    let hot_lo = ref max_int and hot_hi = ref min_int in
    (* a failure keeps the hull but not the additions: the slots they
       name may move before the next check *)
    p.dp_nadd <- max_adds + 1;
    (* from the segment holding [lo] *)
    let k = ref (max 0 (bp_search p 0 (lo + 1) - 1)) in
    while !k < p.dp_nbp && Array.unsafe_get time !k < hi do
      let u = Array.unsafe_get use !k in
      if u > cap then raise (Store.Fail "cumulative overload");
      (* [u > hot >= 0]: not the last breakpoint, whose usage is 0 *)
      if u > hot then begin
        let a = max (Array.unsafe_get time !k) lo
        and b = min (Array.unsafe_get time (!k + 1)) hi in
        if a < !hot_lo then hot_lo := a;
        if b > !hot_hi then hot_hi := b
      end;
      incr k
    done;
    let hot_lo = !hot_lo and hot_hi = !hot_hi in
    if hot_lo < hot_hi then begin
      (* clip the additions to the hot hull, dropping those it misses *)
      let at = p.dp_add_at in
      let kept = ref 0 in
      if nadd <= max_adds then
        for j = 0 to nadd - 1 do
          let lo = max hot_lo (Array.unsafe_get at (3 * j))
          and hi = min hot_hi (Array.unsafe_get at ((3 * j) + 1)) in
          if lo < hi then begin
            Array.unsafe_set at (3 * !kept) lo;
            Array.unsafe_set at ((3 * !kept) + 1) hi;
            Array.unsafe_set at ((3 * !kept) + 2)
              (Array.unsafe_get at ((3 * j) + 2));
            incr kept
          end
        done;
      p.dp_nadd <- (if nadd <= max_adds then !kept else nadd);
      for i = 0 to p.dp_n - 1 do
        if Array.unsafe_get p.dp_pruned i then begin
          let est = Array.unsafe_get p.dp_cache_est i
          and lst = Array.unsafe_get p.dp_cache_lst i
          and dur = Array.unsafe_get p.dp_dur i in
          if
            est <> lst
            && (((est < hot_hi && est + dur > hot_lo)
                 && dyn_added_meets p i est (est + dur))
               || (lst < hot_hi && lst + dur > hot_lo
                  && dyn_added_meets p i lst (lst + dur)))
          then Array.unsafe_set p.dp_pruned i false
        end
      done
    end;
    p.dp_add_lo <- max_int;
    p.dp_add_hi <- min_int;
    p.dp_nadd <- 0
  end

(* Whether segment [k] (breakpoint [k] to [k + 1]) has no room for [dem]
   beside the other tasks' compulsory parts: the task's own part
   [own_lo, own_hi) is taken out of the usage where it overlaps. *)
let[@inline] dyn_overloaded p k ~own_lo ~own_hi ~dem =
  let a = Array.unsafe_get p.dp_bp_time k
  and b = Array.unsafe_get p.dp_bp_time (k + 1) in
  let u = Array.unsafe_get p.dp_bp_use k in
  let u = if own_lo < b && own_hi > a then u - dem else u in
  u + dem > p.dp_capacity

(* Prune task [i] against the profile; the segments are sorted and
   disjoint, so binary-search the first candidate and stop past the
   window.  Its cached bounds are the store's: the refresh before this
   pass read them, and only the task's own prune writes them.  Segment [k]
   spans breakpoints [k] and [k + 1], so there are [dp_nbp - 1] of them.

   One call takes the task to its own fixpoint against the other tasks'
   parts: the est scan stops at the first start whose window holds no
   blocking point, the lst scan at the last, and the task's own part never
   blocks it (where the part lies, its demand is taken out of the usage
   again), so it blocks nothing before or after it grows.  So the task is
   marked whether it moved or not, and a move records the new bounds and
   part at once; the part's added usage is scoped against the other marks
   at the next pass. *)
let dyn_prune p s i =
  let v = Array.unsafe_get p.dp_start i
  and dur = Array.unsafe_get p.dp_dur i
  and dem = Array.unsafe_get p.dp_dem i in
  let est0 = Array.unsafe_get p.dp_cache_est i
  and lst0 = Array.unsafe_get p.dp_cache_lst i in
  let time = p.dp_bp_time in
  let nseg = max 0 (p.dp_nbp - 1) in
  let own_lo = Array.unsafe_get p.dp_comp_lo i
  and own_hi = Array.unsafe_get p.dp_comp_hi i in
  let est = ref est0 in
  let lo = ref 0 and hi = ref nseg in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get time (mid + 1) > !est then hi := mid
    else lo := mid + 1
  done;
  let k = ref !lo in
  while !k < nseg && Array.unsafe_get time !k < !est + dur do
    if
      Array.unsafe_get time (!k + 1) > !est
      && dyn_overloaded p !k ~own_lo ~own_hi ~dem
    then est := Array.unsafe_get time (!k + 1);
    incr k
  done;
  if !est > est0 then Store.set_min s v !est;
  let lst = ref lst0 in
  let lo = ref 0 and hi = ref nseg in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get time mid < !lst + dur then lo := mid + 1
    else hi := mid
  done;
  let k = ref (!lo - 1) in
  let scanning = ref true in
  while !scanning && !k >= 0 do
    if Array.unsafe_get time (!k + 1) > !lst then begin
      if
        Array.unsafe_get time !k < !lst + dur
        && dyn_overloaded p !k ~own_lo ~own_hi ~dem
      then lst := Array.unsafe_get time !k - dur;
      decr k
    end
    else scanning := false
  done;
  if !lst < lst0 then Store.set_max s v !lst;
  if !est > est0 || !lst < lst0 then begin
    Array.unsafe_set p.dp_cache_est i !est;
    Array.unsafe_set p.dp_cache_lst i !lst;
    (* bounds only tighten, so a part only appears or grows *)
    if !lst < !est + dur then begin
      dyn_set_comp p i !lst (!est + dur);
      Store.note_tt_edits s 1
    end
  end;
  Array.unsafe_set p.dp_pruned i true

let dyn_run p s =
  let mins = Store.mins s and maxs = Store.maxs s in
  let backtracks = Store.backtracks s in
  let edits = dyn_refresh p mins maxs ~all:(backtracks <> p.dp_backtracks) in
  if edits > 0 then Store.note_tt_edits s edits;
  p.dp_backtracks <- backtracks;
  let again = ref true in
  while !again do
    dyn_take_additions p;
    for i = 0 to p.dp_n - 1 do
      if
        (not (Array.unsafe_get p.dp_pruned i))
        && Array.unsafe_get p.dp_dur i > 0
        && Array.unsafe_get p.dp_dem i > 0
      then
        (* a fixed task has nothing to prune: its part is its whole
           window, which the overload check covers *)
        if Array.unsafe_get p.dp_cache_est i = Array.unsafe_get p.dp_cache_lst i
        then Array.unsafe_set p.dp_pruned i true
        else begin
          Store.note_tt_prune s;
          dyn_prune p s i
        end
    done;
    (* the pass raised events only on the starts it moved, at most two per
       task, and each move recorded itself: drop them.  Go again while the
       moves added usage that may block others. *)
    p.dp_ndirty <- 0;
    again := p.dp_add_lo < p.dp_add_hi
  done

let cumulative_dyn s ~capacity =
  if capacity <= 0 then invalid_arg "cumulative_dyn: capacity must be positive";
  let cap0 = 16 in
  let p =
    {
      dp_capacity = capacity;
      dp_pid = None;
      dp_start = Array.make cap0 0;
      dp_dur = Array.make cap0 0;
      dp_dem = Array.make cap0 0;
      dp_n = 0;
      dp_max_dem = 0;
      dp_slot = Array.make 64 (-1);
      dp_cache_est = Array.make cap0 min_int;
      dp_cache_lst = Array.make cap0 min_int;
      dp_comp_lo = Array.make cap0 max_int;
      dp_comp_hi = Array.make cap0 max_int;
      dp_pruned = Array.make cap0 false;
      dp_bp_time = Array.make ((2 * cap0) + 1) 0;
      dp_bp_cnt = Array.make ((2 * cap0) + 1) 0;
      dp_bp_use = Array.make ((2 * cap0) + 1) 0;
      dp_nbp = 0;
      dp_add_lo = max_int;
      dp_add_hi = min_int;
      dp_add_at = Array.make (3 * max_adds) 0;
      dp_nadd = 0;
      dp_dirty = Array.make (2 * cap0) 0;
      dp_ndirty = 0;
      dp_overflow = false;
      dp_backtracks = Store.backtracks s;
    }
  in
  p.dp_pid <-
    Some
      (Store.register s ~priority:2 ~name:"cumulative" ~idempotent:true
         ~on_event:(fun v -> dyn_note_event p v) (fun s -> dyn_run p s));
  p

let dyn_grow p =
  let cap = Array.length p.dp_start in
  if p.dp_n = cap then begin
    let cap' = 2 * cap in
    let ext a len fill =
      let a' = Array.make len fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    p.dp_start <- ext p.dp_start cap' 0;
    p.dp_dur <- ext p.dp_dur cap' 0;
    p.dp_dem <- ext p.dp_dem cap' 0;
    p.dp_cache_est <- ext p.dp_cache_est cap' min_int;
    p.dp_cache_lst <- ext p.dp_cache_lst cap' min_int;
    p.dp_comp_lo <- ext p.dp_comp_lo cap' max_int;
    p.dp_comp_hi <- ext p.dp_comp_hi cap' max_int;
    p.dp_pruned <- ext p.dp_pruned cap' false;
    p.dp_bp_time <- ext p.dp_bp_time ((2 * cap') + 1) 0;
    p.dp_bp_cnt <- ext p.dp_bp_cnt ((2 * cap') + 1) 0;
    p.dp_bp_use <- ext p.dp_bp_use ((2 * cap') + 1) 0;
    p.dp_dirty <- ext p.dp_dirty (2 * cap') 0
  end

let dyn_add p s term =
  if term.duration < 0 || term.demand < 0 then
    invalid_arg "dyn_add: negative duration/demand";
  if term.demand > p.dp_capacity then
    raise (Store.Fail "task demand > capacity");
  let v = term.start in
  (* the kernel reads [mins]/[maxs] at [v] unchecked *)
  if v < 0 || v >= Array.length (Store.mins s) then
    invalid_arg "dyn_add: not a variable of this store";
  dyn_grow p;
  let i = p.dp_n in
  if v >= Array.length p.dp_slot then begin
    let a = Array.make (max (v + 1) (2 * Array.length p.dp_slot)) (-1) in
    Array.blit p.dp_slot 0 a 0 (Array.length p.dp_slot);
    p.dp_slot <- a
  end;
  p.dp_slot.(v) <- i;
  p.dp_start.(i) <- v;
  p.dp_dur.(i) <- term.duration;
  p.dp_dem.(i) <- term.demand;
  if term.demand > p.dp_max_dem then p.dp_max_dem <- term.demand;
  p.dp_cache_est.(i) <- min_int;
  p.dp_cache_lst.(i) <- min_int;
  p.dp_comp_lo.(i) <- max_int;
  p.dp_comp_hi.(i) <- max_int;
  p.dp_pruned.(i) <- false;
  p.dp_n <- i + 1;
  (* nothing about the new slot is cached: its first run must read it *)
  dyn_note_event p v;
  let pid = dyn_pool_pid p in
  Store.watch s v pid;
  Store.schedule s pid

let dyn_retire p s start =
  let i = if start < Array.length p.dp_slot then p.dp_slot.(start) else -1 in
  if i < 0 then invalid_arg "dyn_retire: variable not in registry";
  (* its part leaves the profile, which keeps every mark valid; the last
     slot moves into [i] with everything cached about it, so additions a
     failed run left pending may name the wrong slot now *)
  if p.dp_comp_lo.(i) <> max_int then begin
    dyn_set_comp p i max_int max_int;
    Store.note_tt_edits s 1
  end;
  if p.dp_nadd > 0 then p.dp_nadd <- max_adds + 1;
  let last = p.dp_n - 1 in
  let moved = p.dp_start.(last) in
  p.dp_start.(i) <- moved;
  p.dp_dur.(i) <- p.dp_dur.(last);
  p.dp_dem.(i) <- p.dp_dem.(last);
  p.dp_cache_est.(i) <- p.dp_cache_est.(last);
  p.dp_cache_lst.(i) <- p.dp_cache_lst.(last);
  p.dp_comp_lo.(i) <- p.dp_comp_lo.(last);
  p.dp_comp_hi.(i) <- p.dp_comp_hi.(last);
  p.dp_pruned.(i) <- p.dp_pruned.(last);
  p.dp_slot.(moved) <- i;
  p.dp_slot.(start) <- -1;
  p.dp_n <- last;
  let pid = dyn_pool_pid p in
  Store.unwatch s start pid;
  Store.schedule s pid

(* --- the objective cut ---------------------------------------------------- *)

(* Σ N_j < !bound over a growable variable set: fail once the minima reach
   the bound, and with one unit of slack left force every undecided N_j to
   0. *)
type dyn_sum = {
  ds_bound : int ref;
  mutable ds_pid : Store.propagator_id option;
  mutable ds_vars : Store.var array;
  mutable ds_n : int;
}

let dyn_sum_pid d = Option.get d.ds_pid

let sum_lt_bound_dyn s ~bound =
  let d = { ds_bound = bound; ds_pid = None; ds_vars = Array.make 16 0; ds_n = 0 } in
  d.ds_pid <-
    Some
      (Store.register s ~priority:0 ~name:"sum_lt_bound" ~idempotent:true
         (fun s ->
           let mins = Store.mins s and maxs = Store.maxs s in
           let sum_min = ref 0 in
           for k = 0 to d.ds_n - 1 do
             sum_min := !sum_min + mins.(d.ds_vars.(k))
           done;
           if !sum_min >= !(d.ds_bound) then
             raise (Store.Fail "objective bound");
           if !sum_min = !(d.ds_bound) - 1 then
             for k = 0 to d.ds_n - 1 do
               let v = d.ds_vars.(k) in
               if mins.(v) = 0 && maxs.(v) > 0 then Store.set_max s v 0
             done));
  d

let dyn_sum_add d s v =
  let cap = Array.length d.ds_vars in
  if d.ds_n = cap then begin
    let a = Array.make (2 * cap) 0 in
    Array.blit d.ds_vars 0 a 0 cap;
    d.ds_vars <- a
  end;
  d.ds_vars.(d.ds_n) <- v;
  d.ds_n <- d.ds_n + 1;
  let pid = dyn_sum_pid d in
  Store.watch_min s v pid;
  Store.schedule s pid

let dyn_sum_remove d s v =
  let i = ref (-1) in
  for k = 0 to d.ds_n - 1 do
    if d.ds_vars.(k) = v then i := k
  done;
  if !i < 0 then invalid_arg "dyn_sum_remove: variable not in sum";
  d.ds_vars.(!i) <- d.ds_vars.(d.ds_n - 1);
  d.ds_n <- d.ds_n - 1;
  let pid = dyn_sum_pid d in
  Store.unwatch s v pid;
  Store.schedule s pid
