(* Tests for the discrete event engine (ordering, FIFO tie-breaking,
   cancellation, horizons, a small M/M/1-style smoke simulation, and
   equivalence with its predecessor) and for that predecessor's binary
   heap, kept with it in [Engine_reference]. *)

let test_heap_ordering () =
  let h = Engine_reference.Heap.create () in
  List.iter (fun k -> Engine_reference.Heap.push h ~key:k k) [ 5; 1; 4; 1; 3; 9; 2 ];
  let drained = ref [] in
  let rec drain () =
    match Engine_reference.Heap.pop h with
    | None -> ()
    | Some (k, _) ->
        drained := k :: !drained;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 1; 2; 3; 4; 5; 9 ]
    (List.rev !drained)

let test_heap_fifo_ties () =
  let h = Engine_reference.Heap.create () in
  List.iter (fun v -> Engine_reference.Heap.push h ~key:7 v) [ "a"; "b"; "c" ];
  let pop () = snd (Option.get (Engine_reference.Heap.pop h)) in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_peek () =
  let h = Engine_reference.Heap.create () in
  Alcotest.(check bool) "empty peek" true (Engine_reference.Heap.peek h = None);
  Engine_reference.Heap.push h ~key:3 "x";
  Engine_reference.Heap.push h ~key:1 "y";
  Alcotest.(check bool) "peek smallest" true (Engine_reference.Heap.peek h = Some (1, "y"));
  Alcotest.(check int) "length" 2 (Engine_reference.Heap.length h)

let test_heap_to_sorted_list_nondestructive () =
  let h = Engine_reference.Heap.create () in
  List.iter (fun k -> Engine_reference.Heap.push h ~key:k k) [ 3; 1; 2 ];
  let l = Engine_reference.Heap.to_sorted_list h in
  Alcotest.(check int) "still 3 elements" 3 (Engine_reference.Heap.length h);
  Alcotest.(check (list int)) "sorted keys" [ 1; 2; 3 ] (List.map fst l)

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"heap drains in sorted order"
    QCheck.(list (int_range 0 10_000))
    (fun keys ->
      let h = Engine_reference.Heap.create () in
      List.iter (fun k -> Engine_reference.Heap.push h ~key:k ()) keys;
      let rec drain acc =
        match Engine_reference.Heap.pop h with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* --- engine ----------------------------------------------------------- *)

let test_engine_executes_in_order () =
  let sim = Desim.Engine.create () in
  let log = ref [] in
  let note tag sim = log := (tag, Desim.Engine.now sim) :: !log in
  ignore (Desim.Engine.schedule sim ~at:30 (note "c"));
  ignore (Desim.Engine.schedule sim ~at:10 (note "a"));
  ignore (Desim.Engine.schedule sim ~at:20 (note "b"));
  Desim.Engine.run_until_empty sim;
  Alcotest.(check (list (pair string int)))
    "order and clocks"
    [ ("a", 10); ("b", 20); ("c", 30) ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Desim.Engine.now sim)

let test_engine_same_time_fifo () =
  let sim = Desim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag ->
      ignore
        (Desim.Engine.schedule sim ~at:5 (fun _ -> log := tag :: !log)))
    [ "first"; "second"; "third" ];
  Desim.Engine.run_until_empty sim;
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ]
    (List.rev !log)

let test_engine_handler_schedules_more () =
  let sim = Desim.Engine.create () in
  let hits = ref 0 in
  let rec ping sim =
    incr hits;
    if !hits < 5 then ignore (Desim.Engine.schedule_after sim ~delay:10 ping)
  in
  ignore (Desim.Engine.schedule sim ~at:0 ping);
  Desim.Engine.run_until_empty sim;
  Alcotest.(check int) "five pings" 5 !hits;
  Alcotest.(check int) "clock 40" 40 (Desim.Engine.now sim)

let test_engine_cancel () =
  let sim = Desim.Engine.create () in
  let fired = ref false in
  let h = Desim.Engine.schedule sim ~at:10 (fun _ -> fired := true) in
  Alcotest.(check int) "one pending" 1 (Desim.Engine.pending sim);
  Desim.Engine.cancel sim h;
  Alcotest.(check int) "none pending" 0 (Desim.Engine.pending sim);
  Desim.Engine.run_until_empty sim;
  Alcotest.(check bool) "never fired" false !fired;
  (* double-cancel is a no-op *)
  Desim.Engine.cancel sim h;
  Alcotest.(check int) "still none" 0 (Desim.Engine.pending sim)

let test_engine_no_past_scheduling () =
  let sim = Desim.Engine.create ~start_time:100 () in
  Alcotest.check_raises "past rejected"
    (Invalid_argument "Engine.schedule: at=50 is before now=100") (fun () ->
      ignore (Desim.Engine.schedule sim ~at:50 (fun _ -> ())))

let test_engine_run_until_horizon () =
  let sim = Desim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun t ->
      ignore (Desim.Engine.schedule sim ~at:t (fun _ -> log := t :: !log)))
    [ 10; 20; 30; 40 ];
  Desim.Engine.run ~until:25 sim;
  Alcotest.(check (list int)) "only <= 25 fired" [ 10; 20 ] (List.rev !log);
  Alcotest.(check int) "clock parked at horizon" 25 (Desim.Engine.now sim);
  Alcotest.(check int) "two still pending" 2 (Desim.Engine.pending sim);
  Desim.Engine.run_until_empty sim;
  Alcotest.(check (list int)) "rest fired" [ 10; 20; 30; 40 ] (List.rev !log)

let test_engine_event_at_horizon_fires () =
  let sim = Desim.Engine.create () in
  let fired = ref false in
  ignore (Desim.Engine.schedule sim ~at:25 (fun _ -> fired := true));
  Desim.Engine.run ~until:25 sim;
  Alcotest.(check bool) "inclusive horizon" true !fired

let test_engine_step () =
  let sim = Desim.Engine.create () in
  ignore (Desim.Engine.schedule sim ~at:1 (fun _ -> ()));
  Alcotest.(check bool) "step true" true (Desim.Engine.step sim);
  Alcotest.(check bool) "step false when empty" false (Desim.Engine.step sim)

(* A tiny single-server queue: exponential arrivals and services; checks that
   the engine sustains a long event cascade and conservation holds. *)
let test_engine_mm1_smoke () =
  let sim = Desim.Engine.create () in
  let rng = Simrand.Rng.create 7 in
  let arrivals = ref 0 and departures = ref 0 and queue = ref 0 in
  let busy = ref false in
  let rec serve sim =
    if !queue > 0 && not !busy then begin
      busy := true;
      decr queue;
      let s = int_of_float (Simrand.Dist.exponential rng ~rate:0.2) + 1 in
      ignore
        (Desim.Engine.schedule_after sim ~delay:s (fun sim ->
             incr departures;
             busy := false;
             serve sim))
    end
  in
  let rec arrive n sim =
    if n > 0 then begin
      incr arrivals;
      incr queue;
      serve sim;
      let gap = int_of_float (Simrand.Dist.exponential rng ~rate:0.1) + 1 in
      ignore (Desim.Engine.schedule_after sim ~delay:gap (arrive (n - 1)))
    end
  in
  ignore (Desim.Engine.schedule sim ~at:0 (arrive 500));
  Desim.Engine.run_until_empty sim;
  Alcotest.(check int) "all arrived" 500 !arrivals;
  Alcotest.(check int) "all served" 500 !departures;
  Alcotest.(check int) "queue drained" 0 !queue

(* --- the engine against its reference ---------------------------------- *)

(* [Engine_reference] is the engine as it was before its event list became
   a heap of pending events in recycled slots.  A random program of
   schedules (some of whose events schedule a child or cancel a handle
   when they fire), reschedules and cancels (of any handle issued so far:
   pending, fired or already cancelled, so stale handles meet reused
   slots), double cancels, steps and horizon runs is replayed on both; they
   must fire the same (time, event) sequence and agree on [pending], the
   executed count, the clock and every [step] result after each operation.
   Delays of 0–4 and ranks 0–3 make same-instant events of different ranks
   common. *)

module type ENGINE = sig
  type t
  type handle

  val create : ?start_time:int -> unit -> t
  val now : t -> int
  val schedule : ?rank:int -> t -> at:int -> (t -> unit) -> handle
  val reschedule : ?rank:int -> t -> handle -> at:int -> (t -> unit) -> handle
  val cancel : t -> handle -> unit
  val pending : t -> int
  val step : t -> bool
  val run : ?until:int -> t -> unit
  val events_executed : t -> int
end

type op =
  | Schedule of {
      delay : int;
      rank : int;
      child : (int * int) option;  (** (delay, rank) scheduled on firing *)
      kill : int option;  (** handle index cancelled on firing *)
    }
  | Reschedule of { k : int; delay : int; rank : int }
      (** handle index; issues a new handle *)
  | Cancel of int  (** handle index, modulo the handles issued *)
  | Cancel_twice of int
  | Step
  | Run_until of int  (** horizon, relative to the clock *)

let pp_op = function
  | Schedule { delay; rank; child; kill } ->
      Printf.sprintf "schedule +%d r%d%s%s" delay rank
        (match child with
        | Some (d, r) -> Printf.sprintf " child(+%d r%d)" d r
        | None -> "")
        (match kill with Some k -> Printf.sprintf " kill %d" k | None -> "")
  | Reschedule { k; delay; rank } ->
      Printf.sprintf "reschedule %d +%d r%d" k delay rank
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Cancel_twice k -> Printf.sprintf "cancel twice %d" k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run until +%d" d

module Replay (E : ENGINE) = struct
  let replay ops =
    let sim = E.create () in
    let handles = ref [||] and issued = ref 0 and labels = ref 0 in
    let fired = ref [] and observed = ref [] in
    let pick k = if !issued = 0 then None else Some !handles.(k mod !issued) in
    let rec schedule ?from ~delay ~rank ~child ~kill () =
      let label = !labels in
      incr labels;
      let at = E.now sim + delay in
      let h =
        (match from with
        | None -> E.schedule ~rank sim ~at
        | Some h -> E.reschedule ~rank sim h ~at) (fun sim ->
            fired := (E.now sim, label) :: !fired;
            Option.iter
              (fun (delay, rank) ->
                schedule ~delay ~rank ~child:None ~kill:None ())
              child;
            Option.iter (fun k -> Option.iter (E.cancel sim) (pick k)) kill)
      in
      if !issued = Array.length !handles then
        handles := Array.append !handles (Array.make (max 8 !issued) h);
      !handles.(!issued) <- h;
      incr issued
    in
    List.iter
      (fun op ->
        let stepped =
          match op with
          | Schedule { delay; rank; child; kill } ->
              schedule ~delay ~rank ~child ~kill ();
              None
          | Reschedule { k; delay; rank } ->
              Option.iter
                (fun h ->
                  schedule ~from:h ~delay ~rank ~child:None ~kill:None ())
                (pick k);
              None
          | Cancel k ->
              Option.iter (E.cancel sim) (pick k);
              None
          | Cancel_twice k ->
              Option.iter
                (fun h ->
                  E.cancel sim h;
                  E.cancel sim h)
                (pick k);
              None
          | Step -> Some (E.step sim)
          | Run_until d ->
              E.run ~until:(E.now sim + d) sim;
              None
        in
        observed :=
          (stepped, E.pending sim, E.events_executed sim, E.now sim)
          :: !observed)
      ops;
    E.run sim;
    (List.rev !fired, List.rev !observed, E.events_executed sim, E.now sim)
end

module New = Replay (Desim.Engine)
(* the reference had no [reschedule]: it is [cancel] then [schedule] *)
module Ref = Replay (struct
  include Engine_reference

  let reschedule ?rank t h ~at action =
    cancel t h;
    schedule ?rank t ~at action
end)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          int_range 0 4 >>= fun delay ->
          int_range 0 3 >>= fun rank ->
          opt (pair (int_range 0 4) (int_range 0 3)) >>= fun child ->
          opt small_nat >|= fun kill -> Schedule { delay; rank; child; kill } );
        ( 2,
          small_nat >>= fun k ->
          int_range 0 4 >>= fun delay ->
          int_range 0 3 >|= fun rank -> Reschedule { k; delay; rank } );
        (2, small_nat >|= fun k -> Cancel k);
        (1, small_nat >|= fun k -> Cancel_twice k);
        (2, return Step);
        (1, int_range 0 6 >|= fun d -> Run_until d);
      ])

let prop_engine_matches_reference =
  QCheck.Test.make ~count:500 ~name:"engine = reference engine"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 0 60) gen_op))
    (fun ops -> New.replay ops = Ref.replay ops)

let () =
  Alcotest.run "desim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "to_sorted_list" `Quick
            test_heap_to_sorted_list_nondestructive;
        ] );
      ( "engine",
        [
          Alcotest.test_case "in order" `Quick test_engine_executes_in_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cascading" `Quick
            test_engine_handler_schedules_more;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "no past" `Quick test_engine_no_past_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_run_until_horizon;
          Alcotest.test_case "horizon inclusive" `Quick
            test_engine_event_at_horizon_fires;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "mm1 smoke" `Quick test_engine_mm1_smoke;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_heap_sorts ]);
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_engine_matches_reference ] );
    ]
