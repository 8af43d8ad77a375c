exception Fail of string

type var = int
type propagator_id = int

(* Growable int array. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 64) () = { data = Array.make (max capacity 1) 0; len = 0 }

  (* [len < Array.length data] after the growth test *)
  let[@inline] push v x =
    if v.len = Array.length v.data then begin
      let data' = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data' 0 v.len;
      v.data <- data'
    end;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1

  (* [0 <= len - 1 < Array.length data] after the emptiness test *)
  let[@inline] pop v =
    if v.len = 0 then invalid_arg "Store.Vec.pop: empty vector";
    v.len <- v.len - 1;
    Array.unsafe_get v.data v.len

  let length v = v.len
end

(* Intrusive ring buffer of propagator ids: a power-of-two circular int
   array, so a push is two stores and a mask — no per-element allocation the
   way [Queue.t] blocks have.  FIFO order is preserved exactly (the search
   trajectory depends on it). *)
module Ring = struct
  type t = { mutable data : int array; mutable head : int; mutable len : int }

  let create () = { data = Array.make 16 0; head = 0; len = 0 }
  let[@inline] is_empty r = r.len = 0

  (* Indices are masked by [Array.length data - 1], and the length is a
     power of two, so every access below is in bounds. *)
  let push r x =
    let cap = Array.length r.data in
    if r.len = cap then begin
      (* full: unroll into a doubled array, head at 0 *)
      let data' = Array.make (2 * cap) 0 in
      let tail = cap - r.head in
      Array.blit r.data r.head data' 0 tail;
      Array.blit r.data 0 data' tail r.head;
      r.data <- data';
      r.head <- 0
    end;
    Array.unsafe_set r.data ((r.head + r.len) land (Array.length r.data - 1)) x;
    r.len <- r.len + 1

  let[@inline] pop r =
    if r.len = 0 then invalid_arg "Store.Ring.pop: empty ring";
    let x = Array.unsafe_get r.data r.head in
    r.head <- (r.head + 1) land (Array.length r.data - 1);
    r.len <- r.len - 1;
    x

  let iter f r =
    let mask = Array.length r.data - 1 in
    for k = 0 to r.len - 1 do
      f r.data.((r.head + k) land mask)
    done

  let clear r =
    r.head <- 0;
    r.len <- 0
end

type propagator = {
  run : t -> unit;
  priority : int;
  idempotent : bool;
  (* called with the variable on every watched bound event, before the
     wakeup test; [ignore_var] (compared physically) when not asked for *)
  on_event : var -> unit;
  mutable queued : bool;
  mutable seen : int;  (* stamp up to which this propagator is at fixpoint *)
}

and t = {
  mutable mins : int array;
  mutable maxs : int array;
  mutable nvars : int;
  (* Event-granular watch lists: set_min wakes only the min list, set_max
     only the max list.  A propagator that reads both bounds registers in both
     lists.  Struct-of-arrays layout: instead of one growable vector per
     (variable, event), every watch edge is a slot in the shared
     [wl_pid]/[wl_next] pool and each (variable, event) keeps only head/tail
     slot indices ([2 * var + event], -1 = empty).  Appending at the tail
     preserves registration order, so notification order — and hence the
     search trajectory — is identical to the per-variable vectors this
     replaces, while [new_var] no longer allocates anything. *)
  mutable watch_head : int array;
  mutable watch_tail : int array;
  mutable wl_pid : int array;
  mutable wl_next : int array;
  mutable wl_len : int;
  mutable props : propagator array;
  mutable nprops : int;
  (* Three priority buckets of pending propagators. *)
  queues : Ring.t array;
  (* trail: packed entries (var lsl 1 lor is_min_bit, old_value) *)
  trail_tags : Vec.t;
  trail_values : Vec.t;
  level_marks : Vec.t;
  (* Modification timestamps: [stamp] counts every bound change; a
     propagator whose watched vars all have [mod_stamp <= seen] is provably
     at fixpoint and its dequeued wakeup can be skipped. *)
  mutable stamp : int;
  mutable mod_stamp : int array;
  mutable running : int;  (* pid executing right now, -1 outside propagate *)
  mutable backtracks : int;  (* levels popped so far *)
  mutable propagations : int;
  mutable wakeups_skipped : int;
  mutable tt_prunes : int;
  mutable tt_edits : int;
  (* Per-propagator telemetry, off by default: the propagation loop guards on
     the single [instrumented] bool, so the uninstrumented hot path costs one
     load.  All state lives in this record (store.mli's locality
     contract), so every store meters itself independently. *)
  mutable instrumented : bool;
  mutable prop_names : string array;
  mutable prop_fires : int array;
  mutable prop_fails : int array;
  mutable prop_time : float array; (* seconds, per propagator *)
}

let ignore_var (_ : var) = ()

let dummy_prop =
  { run = (fun _ -> ()); priority = 1; idempotent = false;
    on_event = ignore_var; queued = false; seen = 0 }

(* Watch-event indices into [watch_head]/[watch_tail]. *)
let ev_min = 0
let ev_max = 1

let create () =
  {
    mins = Array.make 64 0;
    maxs = Array.make 64 0;
    nvars = 0;
    watch_head = Array.make (2 * 64) (-1);
    watch_tail = Array.make (2 * 64) (-1);
    wl_pid = Array.make 64 0;
    wl_next = Array.make 64 (-1);
    wl_len = 0;
    props = Array.make 16 dummy_prop;
    nprops = 0;
    queues = Array.init 3 (fun _ -> Ring.create ());
    trail_tags = Vec.create ();
    trail_values = Vec.create ();
    level_marks = Vec.create ();
    stamp = 0;
    mod_stamp = Array.make 64 0;
    running = -1;
    backtracks = 0;
    propagations = 0;
    wakeups_skipped = 0;
    tt_prunes = 0;
    tt_edits = 0;
    instrumented = false;
    prop_names = Array.make 16 "";
    prop_fires = Array.make 16 0;
    prop_fails = Array.make 16 0;
    prop_time = Array.make 16 0.;
  }

let new_var t ~min ~max =
  if min > max then invalid_arg "Store.new_var: min > max";
  let id = t.nvars in
  if id = Array.length t.mins then begin
    let n = 2 * id in
    let grow a fill =
      let a' = Array.make n fill in
      Array.blit a 0 a' 0 id;
      a'
    in
    t.mins <- grow t.mins 0;
    t.maxs <- grow t.maxs 0;
    t.mod_stamp <- grow t.mod_stamp 0;
    let grow2 a =
      let a' = Array.make (2 * n) (-1) in
      Array.blit a 0 a' 0 (2 * id);
      a'
    in
    t.watch_head <- grow2 t.watch_head;
    t.watch_tail <- grow2 t.watch_tail
  end;
  t.mins.(id) <- min;
  t.maxs.(id) <- max;
  t.mod_stamp.(id) <- 0;
  let base = 2 * id in
  t.watch_head.(base) <- -1;
  t.watch_head.(base + 1) <- -1;
  t.watch_tail.(base) <- -1;
  t.watch_tail.(base + 1) <- -1;
  t.nvars <- id + 1;
  id

let mins t = t.mins
let maxs t = t.maxs
let min_of t v = t.mins.(v)
let max_of t v = t.maxs.(v)
let is_fixed t v = t.mins.(v) = t.maxs.(v)

let value t v =
  if not (is_fixed t v) then invalid_arg "Store.value: variable not fixed";
  t.mins.(v)

(* Wake a propagator because [v] changed.  The modification-timestamp rule:
   a propagator whose [seen] stamp already covers the change is provably at
   fixpoint for it and is not re-queued.  Since stamps grow monotonically and
   [seen] is only advanced past a write by {!touch} (the writer itself, when
   idempotent) or at run completion, the rule exactly suppresses redundant
   self-notification of idempotent propagators and never drops a foreign
   wakeup.

   Unchecked accesses in this block and the bound setters below: [v] has
   passed a checked read of [maxs.(v)] in the setter that got here, and
   [mins], [maxs] and [mod_stamp] share one length while [watch_head] has
   twice it; watch-list slots are below [wl_len] and hold registered pids,
   which are below [nprops]; a queue bucket is 0, 1 or 2. *)
let[@inline] enqueue_for t v pid =
  let p = Array.unsafe_get t.props pid in
  if p.on_event != ignore_var then p.on_event v;
  if Array.unsafe_get t.mod_stamp v <= p.seen then begin
    if not p.queued then t.wakeups_skipped <- t.wakeups_skipped + 1
  end
  else if not p.queued then begin
    p.queued <- true;
    Ring.push (Array.unsafe_get t.queues p.priority) pid
  end

let notify_list t v ev =
  let k = ref (Array.unsafe_get t.watch_head ((2 * v) + ev)) in
  while !k >= 0 do
    enqueue_for t v (Array.unsafe_get t.wl_pid !k);
    k := Array.unsafe_get t.wl_next !k
  done

let[@inline] touch t v =
  t.stamp <- t.stamp + 1;
  Array.unsafe_set t.mod_stamp v t.stamp;
  (* the running idempotent propagator stays at fixpoint across its own
     writes: re-running it on the state it just produced is a no-op *)
  if t.running >= 0 then begin
    let p = Array.unsafe_get t.props t.running in
    if p.idempotent then p.seen <- t.stamp
  end

(* Static failure messages: bound violations are raised (and caught) on the
   search hot path, so the message must not allocate a formatted string. *)
let min_gt_max = "set_min: new min above max"
let max_lt_min = "set_max: new max below min"

(* The first read of each setter is checked; it proves [v] for the rest
   (see [enqueue_for]). *)
(* A write at the root is not trailed: no level mark sits below it, so no
   backtrack could ever pop the entry, and the trail would only grow with
   every root write a long-lived store takes. *)
let set_min t v x =
  if x > t.maxs.(v) then raise (Fail min_gt_max);
  let old = Array.unsafe_get t.mins v in
  if x > old then begin
    if t.level_marks.Vec.len > 0 then begin
      Vec.push t.trail_tags ((v lsl 1) lor 1);
      Vec.push t.trail_values old
    end;
    Array.unsafe_set t.mins v x;
    touch t v;
    notify_list t v ev_min
  end

let set_max t v x =
  if x < t.mins.(v) then raise (Fail max_lt_min);
  let old = Array.unsafe_get t.maxs v in
  if x < old then begin
    if t.level_marks.Vec.len > 0 then begin
      Vec.push t.trail_tags (v lsl 1);
      Vec.push t.trail_values old
    end;
    Array.unsafe_set t.maxs v x;
    touch t v;
    notify_list t v ev_max
  end

let fix t v x =
  set_min t v x;
  set_max t v x

let register t ?(priority = 1) ?(name = "anon") ?(idempotent = false)
    ?(on_event = ignore_var) run =
  if priority < 0 || priority > 2 then
    invalid_arg "Store.register: priority must be 0, 1 or 2";
  let id = t.nprops in
  if id = Array.length t.props then begin
    let grow a fill =
      let a' = Array.make (2 * id) fill in
      Array.blit a 0 a' 0 id;
      a'
    in
    t.props <- grow t.props dummy_prop;
    t.prop_names <- grow t.prop_names "";
    t.prop_fires <- grow t.prop_fires 0;
    t.prop_fails <- grow t.prop_fails 0;
    t.prop_time <- grow t.prop_time 0.
  end;
  t.props.(id) <-
    { run; priority; idempotent; on_event; queued = false; seen = 0 };
  t.prop_names.(id) <- name;
  t.nprops <- id + 1;
  id

(* Append one watch edge at the tail of (v, ev)'s list so that walking the
   list replays registrations in order. *)
let watch_ev t v ev pid =
  if t.wl_len = Array.length t.wl_pid then begin
    let grow a fill =
      let a' = Array.make (2 * t.wl_len) fill in
      Array.blit a 0 a' 0 t.wl_len;
      a'
    in
    t.wl_pid <- grow t.wl_pid 0;
    t.wl_next <- grow t.wl_next (-1)
  end;
  let slot = t.wl_len in
  t.wl_len <- slot + 1;
  t.wl_pid.(slot) <- pid;
  t.wl_next.(slot) <- -1;
  let key = (2 * v) + ev in
  let tail = t.watch_tail.(key) in
  if tail < 0 then t.watch_head.(key) <- slot else t.wl_next.(tail) <- slot;
  t.watch_tail.(key) <- slot

let watch_min t v pid = watch_ev t v ev_min pid
let watch_max t v pid = watch_ev t v ev_max pid

let watch t v pid =
  watch_min t v pid;
  watch_max t v pid

(* Unlink every watch edge of [pid] from [v]'s two lists.  The pool slots
   are not recycled — retraction is rare compared to registration, and a
   leaked slot is one int pair — but the lists themselves stay exact, so a
   retracted propagator is never notified again. *)
let unwatch t v pid =
  for ev = ev_min to ev_max do
    let key = (2 * v) + ev in
    let prev = ref (-1) and k = ref t.watch_head.(key) in
    while !k >= 0 do
      let next = t.wl_next.(!k) in
      if t.wl_pid.(!k) = pid then begin
        if !prev < 0 then t.watch_head.(key) <- next
        else t.wl_next.(!prev) <- next;
        if next < 0 then t.watch_tail.(key) <- !prev
      end
      else prev := !k;
      k := next
    done
  done

(* Unconditional wakeup: used for the initial run and when non-variable
   input changed (e.g. the objective bound ref), which the timestamp rule
   cannot see. *)
let schedule t pid =
  let p = t.props.(pid) in
  if not p.queued then begin
    p.queued <- true;
    Ring.push t.queues.(p.priority) pid
  end

let run_metered t pid p =
  t.prop_fires.(pid) <- t.prop_fires.(pid) + 1;
  let t0 = Obs.Clock.now () in
  let record () =
    t.prop_time.(pid) <- t.prop_time.(pid) +. (Obs.Clock.now () -. t0)
  in
  match p.run t with
  | () -> record ()
  | exception e ->
      t.prop_fails.(pid) <- t.prop_fails.(pid) + 1;
      record ();
      raise e

(* Clear pending wakeups so the next propagation starts clean — the shared
   tail of [propagate]'s fail path and [backtrack_to]. *)
let drain_queues t =
  Array.iter
    (fun q ->
      Ring.iter (fun pid -> t.props.(pid).queued <- false) q;
      Ring.clear q)
    t.queues

(* The next pending propagator, lowest priority bucket first; -1 when every
   queue is empty.  An int sentinel rather than an option: this runs once per
   propagator execution and must not allocate. *)
let next_pid t =
  (* [queues] has the three priority buckets *)
  let q0 = Array.unsafe_get t.queues 0 in
  if not (Ring.is_empty q0) then Ring.pop q0
  else
    let q1 = Array.unsafe_get t.queues 1 in
    if not (Ring.is_empty q1) then Ring.pop q1
    else
      let q2 = Array.unsafe_get t.queues 2 in
      if not (Ring.is_empty q2) then Ring.pop q2 else -1

let propagate t =
  try
    let pid = ref (next_pid t) in
    while !pid >= 0 do
      (* queued pids come from [register], so they are below [nprops] *)
      let p = Array.unsafe_get t.props !pid in
      p.queued <- false;
      t.propagations <- t.propagations + 1;
      let start_stamp = t.stamp in
      t.running <- !pid;
      (match if t.instrumented then run_metered t !pid p else p.run t with
      | () ->
          t.running <- -1;
          (* Idempotent propagators are at fixpoint w.r.t. their own
             writes too ([touch] kept [seen] current); others have only
             provably absorbed the state they started from. *)
          p.seen <- (if p.idempotent then t.stamp else start_stamp)
      | exception e ->
          t.running <- -1;
          raise e);
      pid := next_pid t
    done
  with Fail _ as e ->
    drain_queues t;
    raise e

let push_level t = Vec.push t.level_marks (Vec.length t.trail_tags)

let backtrack t =
  if Vec.length t.level_marks = 0 then
    invalid_arg "Store.backtrack: already at root";
  t.backtracks <- t.backtracks + 1;
  let mark = Vec.pop t.level_marks in
  (* the two trail vectors are pushed and popped together, and every
     trailed variable passed a setter's checked read *)
  let tags = t.trail_tags and values = t.trail_values in
  let mins = t.mins and maxs = t.maxs in
  for k = Vec.length tags - 1 downto mark do
    let tag = Array.unsafe_get tags.Vec.data k in
    let old_value = Array.unsafe_get values.Vec.data k in
    let v = tag lsr 1 in
    if tag land 1 = 1 then Array.unsafe_set mins v old_value
    else Array.unsafe_set maxs v old_value
  done;
  tags.Vec.len <- mark;
  values.Vec.len <- mark

let level t = Vec.length t.level_marks
let backtracks t = t.backtracks
let trail_length t = Vec.length t.trail_tags

let backtrack_to t target =
  if target < 0 || target > level t then
    invalid_arg "Store.backtrack_to: bad target level";
  while level t > target do
    backtrack t
  done;
  (* no pending wakeups should survive across a search reset *)
  drain_queues t

let stats_propagations t = t.propagations
let stats_wakeups_skipped t = t.wakeups_skipped
let stats_tt_prunes t = t.tt_prunes
let stats_tt_edits t = t.tt_edits
let note_tt_prune t = t.tt_prunes <- t.tt_prunes + 1
let note_tt_edits t n = t.tt_edits <- t.tt_edits + n

let set_instrumented t on = t.instrumented <- on
let instrumented t = t.instrumented

type prop_metric = {
  prop_name : string;
  fires : int;
  fails : int;
  time_s : float;
}

let propagator_metrics t =
  let by_name = Hashtbl.create 16 in
  for pid = 0 to t.nprops - 1 do
    let name = t.prop_names.(pid) in
    let fires, fails, time_s =
      Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0, 0.)
    in
    Hashtbl.replace by_name name
      ( fires + t.prop_fires.(pid),
        fails + t.prop_fails.(pid),
        time_s +. t.prop_time.(pid) )
  done;
  Hashtbl.fold
    (fun prop_name (fires, fails, time_s) acc ->
      { prop_name; fires; fails; time_s } :: acc)
    by_name []
  |> List.sort (fun a b -> compare a.prop_name b.prop_name)

type telemetry_mark = (string * int) list * prop_metric list

let counters t =
  [
    ("store/propagations", t.propagations);
    ("prop/wakeups_skipped", t.wakeups_skipped);
    ("prop/tt_prunes", t.tt_prunes);
    ("prop/tt_edits", t.tt_edits);
  ]

let telemetry_mark t = (counters t, propagator_metrics t)

let harvest ?since registry t =
  let counters0, props0 = Option.value since ~default:([], []) in
  let count name v v0 =
    Obs.Metrics.add (Obs.Metrics.counter registry name) (v - v0)
  in
  List.iter
    (fun (name, v) ->
      count name v (Option.value (List.assoc_opt name counters0) ~default:0))
    (counters t);
  List.iter
    (fun pm ->
      let p0 =
        match List.find_opt (fun p -> p.prop_name = pm.prop_name) props0 with
        | Some p -> p
        | None -> { pm with fires = 0; fails = 0; time_s = 0. }
      in
      let pfx = "prop/" ^ pm.prop_name in
      count (pfx ^ "/fires") pm.fires p0.fires;
      count (pfx ^ "/fails") pm.fails p0.fails;
      Obs.Metrics.observe
        (Obs.Metrics.histogram registry (pfx ^ "/time_s"))
        (pm.time_s -. p0.time_s))
    (propagator_metrics t)
