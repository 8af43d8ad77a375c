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

let max_of s ~result ~terms ~floor =
  match terms with
  | [] ->
      (* result is the constant floor *)
      let pid =
        Store.register s ~priority:0 ~name:"max_of" ~idempotent:true (fun s ->
            Store.set_min s result floor;
            Store.set_max s result floor)
      in
      Store.schedule s pid
  | _ ->
      let xs = Array.of_list (List.map fst terms)
      and cs = Array.of_list (List.map snd terms) in
      let n = Array.length xs in
      let pid =
        Store.register s ~priority:1 ~name:"max_of" ~idempotent:true (fun s ->
            let mins = Store.mins s and maxs = Store.maxs s in
            (* result >= every term and >= floor *)
            let max_min = ref floor and max_max = ref floor in
            for k = 0 to n - 1 do
              let x = xs.(k) and c = cs.(k) in
              let mn = mins.(x) + c and mx = maxs.(x) + c in
              if mn > !max_min then max_min := mn;
              if mx > !max_max then max_max := mx
            done;
            if !max_min > mins.(result) then Store.set_min s result !max_min;
            if !max_max < maxs.(result) then Store.set_max s result !max_max;
            (* every term <= result *)
            let ub = maxs.(result) in
            for k = 0 to n - 1 do
              let x = xs.(k) and c = cs.(k) in
              if ub - c < maxs.(x) then Store.set_max s x (ub - c)
            done)
      in
      (* reads both bounds of the terms but only result's upper bound (no
         rule propagates from result's min back to the terms) *)
      Array.iter (fun x -> Store.watch s x pid) xs;
      Store.watch_max s result pid;
      Store.schedule s pid

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

let sum_lt_bound s ~vars ~bound =
  let pid =
    Store.register s ~priority:0 ~name:"sum_lt_bound" ~idempotent:true (fun s ->
        let sum_min = Array.fold_left (fun acc v -> acc + Store.min_of s v) 0 vars in
        if sum_min >= !bound then raise (Store.Fail "objective bound");
        if sum_min = !bound - 1 then
          (* no slack left: every undecided job must meet its deadline *)
          Array.iter
            (fun v -> if Store.min_of s v = 0 then Store.set_max s v 0)
            vars)
  in
  (* only the lower bounds enter the sum *)
  Array.iter (fun v -> Store.watch_min s v pid) vars;
  Store.schedule s pid;
  pid

(* --- time-table cumulative ------------------------------------------------ *)

let check_cumulative_args ~tasks ~capacity =
  if capacity <= 0 then invalid_arg "cumulative: capacity must be positive";
  Array.iter
    (fun t ->
      if t.duration < 0 || t.demand < 0 then
        invalid_arg "cumulative: negative duration/demand";
      if t.demand > capacity then raise (Store.Fail "task demand > capacity"))
    tasks

(* Allocation-free incremental time-table kernel.  The propagation is the
   textbook one (segment profile + per-task overload test; the list-based
   reference version is the test suite's oracle), computed without
   allocating:

   - every task owns two stable event slots (2i for the compulsory-part
     start, 2i+1 for its end); frozen occupations live in the tail slots,
     written once.  Absent compulsory parts park their slots at a [max_int]
     time sentinel, which sorts past every real event.
   - only tasks whose start bounds moved since the previous run rewrite
     their slots (value-compared cache, so backtracking needs no hook);
   - the sort is an insertion sort over a persistent permutation, which is
     nearly sorted between consecutive runs;
   - if the previous run completed without pruning anything and no bounds
     moved since, the store state is a witnessed fixpoint of this
     propagator and the run is skipped outright ([Store.note_scratch_reuse]).
     [valid] is false from run entry to successful no-change completion, so
     a state identical to one that pruned — or failed — is never skipped. *)
let cumulative s ~tasks ~fixed ~capacity =
  check_cumulative_args ~tasks ~capacity;
  let n = Array.length tasks in
  let nfix =
    Array.fold_left
      (fun acc (_, d, r) -> if d > 0 && r > 0 then acc + 1 else acc)
      0 fixed
  in
  let ne = (2 * n) + (2 * nfix) in
  let ev_time = Array.make (max 1 ne) max_int in
  let ev_delta = Array.make (max 1 ne) 0 in
  let k = ref (2 * n) in
  Array.iter
    (fun (start, d, r) ->
      if d > 0 && r > 0 then begin
        ev_time.(!k) <- start;
        ev_delta.(!k) <- r;
        ev_time.(!k + 1) <- start + d;
        ev_delta.(!k + 1) <- -r;
        k := !k + 2
      end)
    fixed;
  let perm = Array.init (max 1 ne) (fun i -> i) in
  let comp_lo = Array.make (max 1 n) max_int in
  let comp_hi = Array.make (max 1 n) max_int in
  (* start bounds each task's slots were last computed from *)
  let cache_est = Array.make (max 1 n) min_int in
  let cache_lst = Array.make (max 1 n) min_int in
  let valid = ref false in
  let seg_a = Array.make (ne + 1) 0 in
  let seg_b = Array.make (ne + 1) 0 in
  let seg_u = Array.make (ne + 1) 0 in
  let run s =
    (* 1. refresh event slots of tasks whose bounds moved *)
    let moved = ref false in
    for i = 0 to n - 1 do
      let t = tasks.(i) in
      if t.duration > 0 && t.demand > 0 then begin
        let est = Store.min_of s t.start and lst = Store.max_of s t.start in
        if est <> cache_est.(i) || lst <> cache_lst.(i) then begin
          moved := true;
          cache_est.(i) <- est;
          cache_lst.(i) <- lst;
          let lo = lst and hi = est + t.duration in
          if lo < hi then begin
            comp_lo.(i) <- lo;
            comp_hi.(i) <- hi;
            ev_time.(2 * i) <- lo;
            ev_delta.(2 * i) <- t.demand;
            ev_time.((2 * i) + 1) <- hi;
            ev_delta.((2 * i) + 1) <- -t.demand
          end
          else begin
            comp_lo.(i) <- max_int;
            comp_hi.(i) <- max_int;
            ev_time.(2 * i) <- max_int;
            ev_delta.(2 * i) <- 0;
            ev_time.((2 * i) + 1) <- max_int;
            ev_delta.((2 * i) + 1) <- 0
          end
        end
      end
    done;
    if (not !moved) && !valid then Store.note_scratch_reuse s
    else begin
      valid := false;
      (* 2. insertion-sort the permutation by event time *)
      for a = 1 to ne - 1 do
        let pa = perm.(a) in
        let ta = ev_time.(pa) in
        let b = ref (a - 1) in
        while !b >= 0 && ev_time.(perm.(!b)) > ta do
          perm.(!b + 1) <- perm.(!b);
          decr b
        done;
        perm.(!b + 1) <- pa
      done;
      (* 3. sweep into maximal segments with usage > 0; sentinel events
         (absent compulsory parts) sit past every real event *)
      let nseg = ref 0 in
      let i = ref 0 and usage = ref 0 in
      while !i < ne && ev_time.(perm.(!i)) < max_int do
        let time = ev_time.(perm.(!i)) in
        while !i < ne && ev_time.(perm.(!i)) = time do
          usage := !usage + ev_delta.(perm.(!i));
          incr i
        done;
        if !usage > capacity then raise (Store.Fail "cumulative overload");
        let next =
          if !i < ne && ev_time.(perm.(!i)) < max_int then ev_time.(perm.(!i))
          else max_int
        in
        if !usage > 0 && next > time then begin
          seg_a.(!nseg) <- time;
          seg_b.(!nseg) <- next;
          seg_u.(!nseg) <- !usage;
          incr nseg
        end
      done;
      let nseg = !nseg in
      (* 4. prune — same rules and same order as the reference kernel *)
      let changed = ref false in
      if nseg > 0 then
        for t = 0 to n - 1 do
          let task = tasks.(t) in
          if task.duration > 0 && task.demand > 0
             && not (Store.is_fixed s task.start)
          then begin
            let own_lo = comp_lo.(t) and own_hi = comp_hi.(t) in
            let overloaded k =
              let u =
                if own_lo < seg_b.(k) && own_hi > seg_a.(k) then
                  seg_u.(k) - task.demand
                else seg_u.(k)
              in
              u + task.demand > capacity
            in
            (* Segments are sorted and disjoint, so only those overlapping
               the task's window can fire: binary-search the window edge and
               stop at the first segment past it.  [est] only grows during
               the scan (the window's far edge moves right), so a forward
               scan with the live window test visits exactly the segments
               the full scan would have triggered on. *)
            let est = ref (Store.min_of s task.start) in
            let lo = ref 0 and hi = ref nseg in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if seg_b.(mid) > !est then hi := mid else lo := mid + 1
            done;
            let k = ref !lo in
            while !k < nseg && seg_a.(!k) < !est + task.duration do
              if seg_b.(!k) > !est && overloaded !k then est := seg_b.(!k);
              incr k
            done;
            if !est > Store.min_of s task.start then changed := true;
            Store.set_min s task.start !est;
            (* mirror: [lst] only shrinks, and once a segment ends at or
               before it no earlier segment can fire either *)
            let lst = ref (Store.max_of s task.start) in
            let lo = ref 0 and hi = ref nseg in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if seg_a.(mid) < !lst + task.duration then lo := mid + 1
              else hi := mid
            done;
            let k = ref (!lo - 1) in
            let scanning = ref true in
            while !scanning && !k >= 0 do
              if seg_b.(!k) > !lst then begin
                if seg_a.(!k) < !lst + task.duration && overloaded !k then
                  lst := seg_a.(!k) - task.duration;
                decr k
              end
              else scanning := false
            done;
            if !lst < Store.max_of s task.start then changed := true;
            Store.set_max s task.start !lst
          end
        done;
      if not !changed then valid := true
    end
  in
  let pid = Store.register s ~priority:2 ~name:"cumulative" run in
  Array.iter (fun t -> Store.watch s t.start pid) tasks;
  Store.schedule s pid

(* --- disjunctive edge finding --------------------------------------------- *)

let disjunctive_applicable ~tasks ~fixed ~capacity =
  let any_var =
    Array.exists (fun t -> t.duration > 0 && t.demand > 0) tasks
  in
  any_var
  && Array.for_all
       (fun t -> t.duration <= 0 || t.demand <= 0 || t.demand = capacity)
       tasks
  && Array.for_all
       (fun (_, d, r) -> d <= 0 || r <= 0 || r = capacity)
       fixed

(* Vilím's O(n log n) Θ-Λ-tree edge finding + overload checking for a unary
   resource.  Engaged (see [disjunctive_applicable]) when every active task
   saturates the resource, i.e. at most one can run at a time: capacity 1,
   or all demands equal to the capacity.

   Frozen occupations participate as immutable tasks: a strengthened bound
   on one is an inconsistency, reported as an overload failure.  The max
   side reuses the est-side pass on the reflected time axis
   (est' = -lct, lct' = -est). *)
let disjunctive s ~tasks ~fixed =
  let vtasks =
    Array.of_list
      (List.filter
         (fun t -> t.duration > 0 && t.demand > 0)
         (Array.to_list tasks))
  in
  let ftasks =
    Array.of_list
      (List.filter (fun (_, d, r) -> d > 0 && r > 0) (Array.to_list fixed))
  in
  let nv = Array.length vtasks and nf = Array.length ftasks in
  let n = nv + nf in
  if n >= 2 && nv >= 1 then begin
    (* tasks 0..nv-1 are variable, nv..n-1 frozen *)
    let est = Array.make n 0 and lct = Array.make n 0 and p = Array.make n 0 in
    let m_est = Array.make n 0 and m_lct = Array.make n 0 in
    for i = 0 to nv - 1 do
      p.(i) <- vtasks.(i).duration
    done;
    for i = 0 to nf - 1 do
      let st, d, _ = ftasks.(i) in
      p.(nv + i) <- d;
      est.(nv + i) <- st;
      lct.(nv + i) <- st + d;
      m_est.(nv + i) <- -(st + d);
      m_lct.(nv + i) <- -st
    done;
    let est_perm = Array.init n (fun i -> i) in
    let lct_perm = Array.init n (fun i -> i) in
    let m_est_perm = Array.init n (fun i -> i) in
    let m_lct_perm = Array.init n (fun i -> i) in
    let rank = Array.make n 0 in
    let upd = Array.make n min_int in
    let tree = Theta_tree.create () in
    (* nearly sorted between runs: insertion sort *)
    let insertion_sort key perm =
      for a = 1 to n - 1 do
        let pa = perm.(a) in
        let ka = key.(pa) in
        let b = ref (a - 1) in
        while !b >= 0 && key.(perm.(!b)) > ka do
          perm.(!b + 1) <- perm.(!b);
          decr b
        done;
        perm.(!b + 1) <- pa
      done
    in
    (* one est-side pass over (est, lct, p): overload check, then edge
       finding; strengthened ests land in [upd] *)
    let pass est lct est_perm lct_perm =
      insertion_sort est est_perm;
      insertion_sort lct lct_perm;
      for k = 0 to n - 1 do
        rank.(est_perm.(k)) <- k
      done;
      Theta_tree.prepare tree n;
      (* overload check: grow Θ in lct order; ect(Θ) must stay within lct *)
      for k = 0 to n - 1 do
        let j = lct_perm.(k) in
        Theta_tree.add tree rank.(j) ~est:est.(j) ~p:p.(j);
        if Theta_tree.ect tree > lct.(j) then
          raise (Store.Fail "disjunctive overload")
      done;
      Array.fill upd 0 n min_int;
      (* edge finding: peel tasks off Θ in lct-descending order; whenever
         some gray i makes ect(Θ ∪ {i}) overshoot lct(Θ), i must run after
         all of Θ, so est_i ≥ ect(Θ) *)
      for k = n - 1 downto 1 do
        let j = lct_perm.(k) in
        Theta_tree.gray tree rank.(j);
        let limit = lct.(lct_perm.(k - 1)) in
        if Theta_tree.ect tree > limit then
          raise (Store.Fail "disjunctive overload");
        let continue = ref true in
        while !continue && Theta_tree.ect_bar tree > limit do
          let r = Theta_tree.responsible tree in
          if r < 0 then continue := false
          else begin
            let i = est_perm.(r) in
            let e = Theta_tree.ect tree in
            if e > upd.(i) then upd.(i) <- e;
            Theta_tree.remove tree r
          end
        done
      done
    in
    let run s =
      for i = 0 to nv - 1 do
        let t = vtasks.(i) in
        est.(i) <- Store.min_of s t.start;
        lct.(i) <- Store.max_of s t.start + t.duration
      done;
      pass est lct est_perm lct_perm;
      let prunes = ref 0 in
      for i = 0 to n - 1 do
        if upd.(i) > est.(i) then
          if i < nv then begin
            if upd.(i) > Store.min_of s vtasks.(i).start then incr prunes;
            Store.set_min s vtasks.(i).start upd.(i)
          end
          else raise (Store.Fail "disjunctive overload")
      done;
      (* mirror pass on the reflected axis: an est cut there is an lct cut
         here.  Bounds are re-read so the est-side prunes carry over. *)
      for i = 0 to nv - 1 do
        let t = vtasks.(i) in
        m_est.(i) <- -(Store.max_of s t.start + t.duration);
        m_lct.(i) <- -(Store.min_of s t.start)
      done;
      pass m_est m_lct m_est_perm m_lct_perm;
      for i = 0 to n - 1 do
        if upd.(i) > m_est.(i) then
          if i < nv then begin
            let t = vtasks.(i) in
            let new_max = -upd.(i) - t.duration in
            if new_max < Store.max_of s t.start then incr prunes;
            Store.set_max s t.start new_max
          end
          else raise (Store.Fail "disjunctive overload")
      done;
      if !prunes > 0 then Store.note_edge_finder_prunes s !prunes
    in
    let pid = Store.register s ~priority:2 ~name:"disjunctive" run in
    Array.iter (fun t -> Store.watch s t.start pid) vtasks;
    Store.schedule s pid
  end

(* --- the capacity constraint of one pool --------------------------------- *)

let capacity s ~tasks ~fixed ~capacity =
  cumulative s ~tasks ~fixed ~capacity;
  (* on a unary-equivalent pool the Θ-tree rules prune what the time table
     cannot; elsewhere they would be unsound *)
  if disjunctive_applicable ~tasks ~fixed ~capacity then
    disjunctive s ~tasks ~fixed

(* --- dynamic registries (persistent sessions) ----------------------------- *)

(* [cumulative]'s task set is fixed at posting time; a {!Session} needs one
   capacity propagator per pool whose registry grows (job arrivals) and
   shrinks (completed tasks retracted) across solver invocations.  The
   kernel below applies the [cumulative] rules — identical segment profile,
   identical per-task overload pruning — to a mutable registry, with the
   same allocation-free machinery: stable per-task event slots ([max_int]
   sentinel when a task has no compulsory part), a persistent
   insertion-sorted event permutation (reset to the identity whenever the
   registry changes shape), and preallocated segment scratch.

   Unlike the static kernels it runs to its own fixpoint: after a pass that
   moved a bound it refreshes and prunes again before returning, so it is
   registered idempotent and its own writes never re-queue it.  Two caches
   make a re-run cheap, both value-compared against the store so that
   backtracking needs no hook:
   - the segment profile is a function of the compulsory parts alone, so it
     is rebuilt only when some task's compulsory part moved
     ([dp_seg_valid]);
   - a task's pruning is a function of its own bounds and the segments, so
     a task marked [dp_pruned] (pruned to a no-op against the current
     segments at its cached bounds) is skipped until its bounds move or the
     segments are rebuilt. *)
type dyn_pool = {
  dp_capacity : int;
  mutable dp_pid : Store.propagator_id option;
  mutable dp_start : Store.var array;
  mutable dp_dur : int array;
  mutable dp_dem : int array;
  mutable dp_n : int;
  (* registry slot of each start variable, -1 when absent; indexed by
     variable *)
  mutable dp_slot : int array;
  (* scratch, grown with the registry *)
  mutable dp_comp_lo : int array;
  mutable dp_comp_hi : int array;
  mutable dp_ev_time : int array;  (* slots 2i / 2i+1 belong to task i *)
  mutable dp_ev_dem : int array;
  mutable dp_perm : int array;
  mutable dp_seg_a : int array;
  mutable dp_seg_b : int array;
  mutable dp_seg_u : int array;
  mutable dp_nseg : int;
  mutable dp_perm_dirty : bool;
  (* start bounds each task's event slots were last computed from *)
  mutable dp_cache_est : int array;
  mutable dp_cache_lst : int array;
  (* the segments match the compulsory parts in [dp_comp_lo]/[dp_comp_hi] *)
  mutable dp_seg_valid : bool;
  (* task i is at fixpoint against the segments at its cached bounds *)
  mutable dp_pruned : bool array;
}

let dyn_pool_pid p = Option.get p.dp_pid

(* Write task [i]'s compulsory part [lo, hi) and its two event slots;
   [lo = max_int] parks both slots at the sentinel (no compulsory part). *)
let dyn_set_comp p i lo hi =
  let dem = if lo = max_int then 0 else p.dp_dem.(i) in
  p.dp_comp_lo.(i) <- lo;
  p.dp_comp_hi.(i) <- hi;
  p.dp_ev_time.(2 * i) <- lo;
  p.dp_ev_dem.(2 * i) <- dem;
  p.dp_ev_time.((2 * i) + 1) <- hi;
  p.dp_ev_dem.((2 * i) + 1) <- -dem

(* Forget everything cached about slot [i] (a task just entered it). *)
let dyn_reset_slot p i =
  dyn_set_comp p i max_int max_int;
  p.dp_cache_est.(i) <- min_int;
  p.dp_cache_lst.(i) <- min_int;
  p.dp_pruned.(i) <- false;
  p.dp_perm_dirty <- true;
  p.dp_seg_valid <- false

(* Bring every task's cached bounds in line with the store: a task whose
   bounds moved loses its prune mark, and one whose compulsory part moved
   invalidates the segments. *)
let dyn_refresh p mins maxs =
  for i = 0 to p.dp_n - 1 do
    let dur = p.dp_dur.(i) in
    if dur > 0 && p.dp_dem.(i) > 0 then begin
      let v = p.dp_start.(i) in
      let est = mins.(v) and lst = maxs.(v) in
      if est <> p.dp_cache_est.(i) || lst <> p.dp_cache_lst.(i) then begin
        p.dp_cache_est.(i) <- est;
        p.dp_cache_lst.(i) <- lst;
        p.dp_pruned.(i) <- false;
        let has_comp = lst < est + dur in
        let lo = if has_comp then lst else max_int
        and hi = if has_comp then est + dur else max_int in
        if lo <> p.dp_comp_lo.(i) || hi <> p.dp_comp_hi.(i) then begin
          dyn_set_comp p i lo hi;
          p.dp_seg_valid <- false
        end
      end
    end
  done

(* Sort the events and sweep them into the step profile of segments with
   positive usage.  @raise Store.Fail on an overloaded segment. *)
let dyn_rebuild p =
  let ne = 2 * p.dp_n in
  if p.dp_perm_dirty then begin
    for k = 0 to ne - 1 do
      p.dp_perm.(k) <- k
    done;
    p.dp_perm_dirty <- false
  end;
  (* insertion sort: nearly sorted between consecutive runs *)
  for k = 1 to ne - 1 do
    let e = p.dp_perm.(k) in
    let te = p.dp_ev_time.(e) in
    let j = ref (k - 1) in
    while !j >= 0 && p.dp_ev_time.(p.dp_perm.(!j)) > te do
      p.dp_perm.(!j + 1) <- p.dp_perm.(!j);
      decr j
    done;
    p.dp_perm.(!j + 1) <- e
  done;
  (* sentinel events terminate the scan *)
  let i = ref 0 and usage = ref 0 and nseg = ref 0 in
  while !i < ne && p.dp_ev_time.(p.dp_perm.(!i)) < max_int do
    let time = p.dp_ev_time.(p.dp_perm.(!i)) in
    while !i < ne && p.dp_ev_time.(p.dp_perm.(!i)) = time do
      usage := !usage + p.dp_ev_dem.(p.dp_perm.(!i));
      incr i
    done;
    if !usage > p.dp_capacity then raise (Store.Fail "cumulative overload");
    let next = if !i < ne then p.dp_ev_time.(p.dp_perm.(!i)) else max_int in
    if !usage > 0 && next > time then begin
      p.dp_seg_a.(!nseg) <- time;
      p.dp_seg_b.(!nseg) <- next;
      p.dp_seg_u.(!nseg) <- !usage;
      incr nseg
    end
  done;
  p.dp_nseg <- !nseg;
  Array.fill p.dp_pruned 0 p.dp_n false;
  p.dp_seg_valid <- true

(* Whether segment [k] has no room for [dem] beside the other tasks'
   compulsory parts: the task's own part [own_lo, own_hi) is taken out of
   the usage where it overlaps. *)
let dyn_overloaded p k ~own_lo ~own_hi ~dem =
  let u = p.dp_seg_u.(k) in
  let u =
    if own_lo < p.dp_seg_b.(k) && own_hi > p.dp_seg_a.(k) then u - dem else u
  in
  u + dem > p.dp_capacity

(* Prune task [i] exactly as [cumulative] does; the segments are
   sorted and disjoint, so binary-search the first candidate and stop past
   the window.  Marks the task pruned when nothing moved; returns whether a
   bound moved. *)
let dyn_prune p s mins maxs i =
  let v = p.dp_start.(i) and dur = p.dp_dur.(i) and dem = p.dp_dem.(i) in
  let est0 = mins.(v) and lst0 = maxs.(v) in
  if est0 = lst0 then begin
    p.dp_pruned.(i) <- true;
    false
  end
  else begin
    let nseg = p.dp_nseg in
    let own_lo = p.dp_comp_lo.(i) and own_hi = p.dp_comp_hi.(i) in
    let est = ref est0 in
    let lo = ref 0 and hi = ref nseg in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p.dp_seg_b.(mid) > !est then hi := mid else lo := mid + 1
    done;
    let k = ref !lo in
    while !k < nseg && p.dp_seg_a.(!k) < !est + dur do
      if p.dp_seg_b.(!k) > !est && dyn_overloaded p !k ~own_lo ~own_hi ~dem
      then est := p.dp_seg_b.(!k);
      incr k
    done;
    if !est > est0 then Store.set_min s v !est;
    let lst = ref lst0 in
    let lo = ref 0 and hi = ref nseg in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p.dp_seg_a.(mid) < !lst + dur then lo := mid + 1 else hi := mid
    done;
    let k = ref (!lo - 1) in
    let scanning = ref true in
    while !scanning && !k >= 0 do
      if p.dp_seg_b.(!k) > !lst then begin
        if
          p.dp_seg_a.(!k) < !lst + dur
          && dyn_overloaded p !k ~own_lo ~own_hi ~dem
        then lst := p.dp_seg_a.(!k) - dur;
        decr k
      end
      else scanning := false
    done;
    if !lst < lst0 then Store.set_max s v !lst;
    let moved = !est > est0 || !lst < lst0 in
    if not moved then p.dp_pruned.(i) <- true;
    moved
  end

let dyn_run p s =
  if p.dp_n > 0 then begin
    let mins = Store.mins s and maxs = Store.maxs s in
    dyn_refresh p mins maxs;
    if p.dp_seg_valid then Store.note_scratch_reuse s;
    let again = ref true in
    while !again do
      if not p.dp_seg_valid then dyn_rebuild p;
      let moved = ref false in
      for i = 0 to p.dp_n - 1 do
        if
          (not p.dp_pruned.(i))
          && p.dp_dur.(i) > 0
          && p.dp_dem.(i) > 0
          && dyn_prune p s mins maxs i
        then moved := true
      done;
      (* pruning grows compulsory parts: refresh and go again until a pass
         moves nothing *)
      if !moved then dyn_refresh p mins maxs;
      again := !moved
    done
  end

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
      dp_slot = Array.make 64 (-1);
      dp_comp_lo = Array.make cap0 max_int;
      dp_comp_hi = Array.make cap0 max_int;
      dp_ev_time = Array.make (2 * cap0) max_int;
      dp_ev_dem = Array.make (2 * cap0) 0;
      dp_perm = Array.init (2 * cap0) Fun.id;
      dp_seg_a = Array.make (2 * cap0) 0;
      dp_seg_b = Array.make (2 * cap0) 0;
      dp_seg_u = Array.make (2 * cap0) 0;
      dp_nseg = 0;
      dp_perm_dirty = true;
      dp_cache_est = Array.make cap0 min_int;
      dp_cache_lst = Array.make cap0 min_int;
      dp_seg_valid = false;
      dp_pruned = Array.make cap0 false;
    }
  in
  p.dp_pid <-
    Some
      (Store.register s ~priority:2 ~name:"cumulative" ~idempotent:true
         (fun s -> dyn_run p s));
  p

let dyn_grow p =
  let cap = Array.length p.dp_start in
  if p.dp_n = cap then begin
    let cap' = 2 * cap in
    let ext a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    let ext2 a fill =
      let a' = Array.make (2 * cap') fill in
      Array.blit a 0 a' 0 (2 * cap);
      a'
    in
    p.dp_start <- ext p.dp_start 0;
    p.dp_dur <- ext p.dp_dur 0;
    p.dp_dem <- ext p.dp_dem 0;
    p.dp_comp_lo <- ext p.dp_comp_lo max_int;
    p.dp_comp_hi <- ext p.dp_comp_hi max_int;
    p.dp_cache_est <- ext p.dp_cache_est min_int;
    p.dp_cache_lst <- ext p.dp_cache_lst min_int;
    p.dp_pruned <- ext p.dp_pruned false;
    p.dp_ev_time <- ext2 p.dp_ev_time max_int;
    p.dp_ev_dem <- ext2 p.dp_ev_dem 0;
    p.dp_perm <- Array.init (2 * cap') Fun.id;
    p.dp_seg_a <- ext2 p.dp_seg_a 0;
    p.dp_seg_b <- ext2 p.dp_seg_b 0;
    p.dp_seg_u <- ext2 p.dp_seg_u 0
  end

let dyn_add p s term =
  if term.duration < 0 || term.demand < 0 then
    invalid_arg "dyn_add: negative duration/demand";
  if term.demand > p.dp_capacity then
    raise (Store.Fail "task demand > capacity");
  dyn_grow p;
  let i = p.dp_n in
  let v = term.start in
  if v >= Array.length p.dp_slot then begin
    let a = Array.make (max (v + 1) (2 * Array.length p.dp_slot)) (-1) in
    Array.blit p.dp_slot 0 a 0 (Array.length p.dp_slot);
    p.dp_slot <- a
  end;
  p.dp_slot.(v) <- i;
  p.dp_start.(i) <- v;
  p.dp_dur.(i) <- term.duration;
  p.dp_dem.(i) <- term.demand;
  dyn_reset_slot p i;
  p.dp_n <- i + 1;
  let pid = dyn_pool_pid p in
  Store.watch s v pid;
  Store.schedule s pid

let dyn_retire p s start =
  let i = if start < Array.length p.dp_slot then p.dp_slot.(start) else -1 in
  if i < 0 then invalid_arg "dyn_retire: variable not in registry";
  let last = p.dp_n - 1 in
  let moved = p.dp_start.(last) in
  p.dp_start.(i) <- moved;
  p.dp_dur.(i) <- p.dp_dur.(last);
  p.dp_dem.(i) <- p.dp_dem.(last);
  p.dp_slot.(moved) <- i;
  p.dp_slot.(start) <- -1;
  (* the swapped-in task inherits a slot whose events belong to the retired
     one: reset it so the next run rewrites them *)
  dyn_reset_slot p i;
  p.dp_n <- last;
  let pid = dyn_pool_pid p in
  Store.unwatch s start pid;
  Store.schedule s pid

(* Growable Σ N_j < bound — [sum_lt_bound] over a mutable variable set. *)
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
