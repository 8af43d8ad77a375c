(* Reference time-table kernel for the capacity constraints (5)/(6): the
   oracle the library's one time table, [Cp.Propagators.cumulative_dyn]
   (which every model and every session posts), is checked against.  It
   rebuilds the profile with list allocation and a full O(n log n) sort on
   every run, so its fixpoint is easy to read off the code; the library
   kernel computes the same fixpoint incrementally.  Same priority; frozen
   occupations enter as constants of the profile rather than as fixed
   starts. *)

module Store = Cp.Store
module P = Cp.Propagators

let check_args ~tasks ~capacity =
  if capacity <= 0 then invalid_arg "cumulative: capacity must be positive";
  Array.iter
    (fun (t : P.term) ->
      if t.P.duration < 0 || t.P.demand < 0 then
        invalid_arg "cumulative: negative duration/demand";
      if t.P.demand > capacity then raise (Store.Fail "task demand > capacity"))
    tasks

let post s ~(tasks : P.term array) ~fixed ~capacity =
  check_args ~tasks ~capacity;
  let n = Array.length tasks in
  (* events of the frozen tasks never change: precompute *)
  let fixed_events =
    Array.to_list fixed
    |> List.concat_map (fun (start, duration, demand) ->
           if duration > 0 && demand > 0 then
             [ (start, demand); (start + duration, -demand) ]
           else [])
  in
  let run s =
    (* 1. collect compulsory parts *)
    let events = ref fixed_events in
    let comp_lo = Array.make n 0 and comp_hi = Array.make n 0 in
    for i = 0 to n - 1 do
      let t = tasks.(i) in
      if t.duration > 0 && t.demand > 0 then begin
        let est = Store.min_of s t.start and lst = Store.max_of s t.start in
        let lo = lst and hi = est + t.duration in
        if lo < hi then begin
          comp_lo.(i) <- lo;
          comp_hi.(i) <- hi;
          events := (lo, t.demand) :: (hi, -t.demand) :: !events
        end
        else begin
          comp_lo.(i) <- max_int;
          comp_hi.(i) <- max_int
        end
      end
      else begin
        comp_lo.(i) <- max_int;
        comp_hi.(i) <- max_int
      end
    done;
    (* 2. sweep into a step profile *)
    let events = Array.of_list !events in
    Array.sort (fun (a, _) (b, _) -> compare a b) events;
    let ne = Array.length events in
    (* segments: (seg_start, seg_end, usage), usage > 0 only *)
    let seg_start = ref [] in
    let i = ref 0 in
    let usage = ref 0 in
    while !i < ne do
      let time = fst events.(!i) in
      while !i < ne && fst events.(!i) = time do
        usage := !usage + snd events.(!i);
        incr i
      done;
      if !usage > capacity then raise (Store.Fail "cumulative overload");
      let next = if !i < ne then fst events.(!i) else max_int in
      if !usage > 0 && next > time then
        seg_start := (time, next, !usage) :: !seg_start
    done;
    let segments = Array.of_list (List.rev !seg_start) in
    let nseg = Array.length segments in
    if nseg > 0 then begin
      (* 3. prune: for each task, push est right (and lst left) past segments
         where the remaining capacity cannot fit its demand.  A task's own
         compulsory contribution is subtracted before testing. *)
      for t = 0 to n - 1 do
        let task = tasks.(t) in
        if task.duration > 0 && task.demand > 0
           && not (Store.is_fixed s task.start)
        then begin
          let own_lo = comp_lo.(t) and own_hi = comp_hi.(t) in
          let overloaded (a, b, u) =
            let u =
              if own_lo < b && own_hi > a then u - task.demand else u
            in
            u + task.demand > capacity
          in
          (* min side *)
          let est = ref (Store.min_of s task.start) in
          for k = 0 to nseg - 1 do
            let (a, b, _) = segments.(k) in
            if
              a < !est + task.duration && b > !est
              && overloaded segments.(k)
            then est := b
          done;
          Store.set_min s task.start !est;
          (* max side (mirror, sweep right to left) *)
          let lst = ref (Store.max_of s task.start) in
          for k = nseg - 1 downto 0 do
            let (a, b, _) = segments.(k) in
            if
              a < !lst + task.duration && b > !lst
              && overloaded segments.(k)
            then lst := a - task.duration
          done;
          Store.set_max s task.start !lst
        end
      done
    end
  in
  let pid = Store.register s ~priority:2 ~name:"cumulative_naive" run in
  Array.iter (fun (t : P.term) -> Store.watch s t.start pid) tasks;
  Store.schedule s pid
