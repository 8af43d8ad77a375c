(* [Desim.Engine] as it stood before its event list was rewritten for
   speed (a heap of the pending events only, in recycled slots), kept
   verbatim as the reference the rewritten engine must reproduce exactly:
   the same (time, event) firing sequence, [pending] and [events_executed]
   on any schedule / cancel / step / run sequence, the way
   [List_reference] serves the list scheduler.  The binary heap it stood
   on, [Desim.Heap], had no other user and is kept here with it. *)

module Heap = struct
  (* Array-backed binary min-heap ordered by (key, seq): seq is a monotonically
     increasing stamp giving FIFO order among equal keys. *)

  type 'a entry = { key : int; seq : int; payload : 'a }

  type 'a t = {
    mutable data : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () = { data = [||]; size = 0; next_seq = 0 }
  let length t = t.size
  let is_empty t = t.size = 0

  let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let grow t entry =
    let capacity = Array.length t.data in
    if t.size = capacity then begin
      let capacity' = max 16 (capacity * 2) in
      let data' = Array.make capacity' entry in
      Array.blit t.data 0 data' 0 t.size;
      t.data <- data'
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t.data.(i) t.data.(parent) then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(parent);
        t.data.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < t.size && less t.data.(left) t.data.(!smallest) then
      smallest := left;
    if right < t.size && less t.data.(right) t.data.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t ~key payload =
    let entry = { key; seq = t.next_seq; payload } in
    t.next_seq <- t.next_seq + 1;
    grow t entry;
    t.data.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let peek t =
    if t.size = 0 then None
    else
      let e = t.data.(0) in
      Some (e.key, e.payload)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some (top.key, top.payload)
    end

  let clear t =
    t.data <- [||];
    t.size <- 0

  let to_sorted_list t =
    let copy =
      { data = Array.sub t.data 0 t.size; size = t.size; next_seq = t.next_seq }
    in
    let rec drain acc =
      match pop copy with None -> List.rev acc | Some kv -> drain (kv :: acc)
    in
    drain []
end

type t = {
  mutable clock : int;
  queue : (int * int * (t -> unit)) Heap.t; (* payload: (id, at, action) *)
  scheduled : (int, unit) Hashtbl.t; (* ids in the queue, not yet cancelled *)
  mutable next_id : int;
  mutable executed : int; (* events fired so far *)
}

type handle = int

let create ?(start_time = 0) () =
  {
    clock = start_time;
    queue = Heap.create ();
    scheduled = Hashtbl.create 64;
    next_id = 0;
    executed = 0;
  }

let now t = t.clock

(* Events at the same instant fire in (rank, insertion order): ranks let a
   simulation express that e.g. task completions must be processed before
   task starts scheduled for the same time.  The heap key packs
   (at, rank) into one int; virtual times therefore must stay below 2^59. *)
let max_rank = 3

let pack ~at ~rank = (at lsl 2) lor rank

let schedule ?(rank = 1) t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is before now=%d" at t.clock);
  if rank < 0 || rank > max_rank then
    invalid_arg "Engine.schedule: rank out of range";
  let id = t.next_id in
  t.next_id <- id + 1;
  Heap.push t.queue ~key:(pack ~at ~rank) (id, at, action);
  Hashtbl.replace t.scheduled id ();
  id

let schedule_after ?rank t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule ?rank t ~at:(t.clock + delay) action

(* Cancelling an event that already fired (or was already cancelled) is a
   no-op by design: handles may be kept past the event's lifetime. *)
let cancel t handle = Hashtbl.remove t.scheduled handle

let pending t = Hashtbl.length t.scheduled

(* Pop the next live event, discarding cancelled entries. *)
let rec pop_live t =
  match Heap.pop t.queue with
  | None -> None
  | Some (_, (id, at, action)) ->
      if Hashtbl.mem t.scheduled id then begin
        Hashtbl.remove t.scheduled id;
        Some (at, action)
      end
      else pop_live t

let peek_live t =
  let rec loop () =
    match Heap.peek t.queue with
    | None -> None
    | Some (_, (id, at, _)) ->
        if Hashtbl.mem t.scheduled id then Some at
        else begin
          ignore (Heap.pop t.queue);
          loop ()
        end
  in
  loop ()

let step t =
  match pop_live t with
  | None -> false
  | Some (at, action) ->
      t.clock <- at;
      t.executed <- t.executed + 1;
      (* Simulated-vs-wall-clock telemetry: a counter sample every 4096
         events is dense enough to plot and far too sparse to slow the
         untraced loop (one land + branch per event). *)
      if t.executed land 4095 = 0 && Obs.Trace.enabled () then
        Obs.Trace.counter ~cat:"sim" "sim-clock"
          [
            ("sim_ms", float_of_int t.clock);
            ("pending", float_of_int (Hashtbl.length t.scheduled));
          ];
      action t;
      true

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        match peek_live t with
        | Some at when at <= horizon -> ignore (step t)
        | Some _ | None ->
            t.clock <- max t.clock horizon;
            continue := false
      done

let run_until_empty t = run t
let events_executed t = t.executed
