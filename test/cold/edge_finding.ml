(* The cold model's capacity posting: the library's time table plus
   Vilím's Θ-tree edge finding on unary-equivalent pools. *)

module Store = Cp.Store

type term = Cp.Propagators.term = {
  start : Store.var;
  duration : int;
  demand : int;
}

(* bounds tightened by every edge finder so far *)
let pruned = ref 0
let prunes () = !pruned

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
      pruned := !pruned + !prunes
    in
    let pid = Store.register s ~priority:2 ~name:"disjunctive" run in
    Array.iter (fun t -> Store.watch s t.start pid) vtasks;
    Store.schedule s pid
  end

(* --- the capacity constraint of one pool --------------------------------- *)

let capacity s ~tasks ~fixed ~capacity =
  let pool = Cp.Propagators.cumulative_dyn s ~capacity in
  Array.iter (Cp.Propagators.dyn_add pool s) tasks;
  Array.iter
    (fun (start, duration, demand) ->
      let start = Store.new_var s ~min:start ~max:start in
      Cp.Propagators.dyn_add pool s { start; duration; demand })
    fixed;
  (* on a unary-equivalent pool the Θ-tree rules prune what the time table
     cannot; elsewhere they would be unsound *)
  if disjunctive_applicable ~tasks ~fixed ~capacity then
    disjunctive s ~tasks ~fixed
