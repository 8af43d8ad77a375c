type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type event = {
  name : string;
  cat : string;
  ph : char;  (* 'X' complete, 'i' instant, 'C' counter *)
  ts : float;  (* µs since trace start *)
  dur : float;  (* µs; complete events only *)
  args : (string * arg) list;
}

(* The one sink: events newest first, how many, and how many the cap
   turned away since {!start}. *)
let enabled_flag = ref false
let origin = ref 0.
let event_limit = ref (1 lsl 20)
let events : event list ref = ref []
let count = ref 0
let dropped_count = ref 0
let enabled () = !enabled_flag

let start ?(limit = 1 lsl 20) () =
  events := [];
  count := 0;
  dropped_count := 0;
  event_limit := limit;
  origin := Clock.now ();
  enabled_flag := true

let stop () = enabled_flag := false

(* Monotonic (Obs.Clock), so span durations survive wall-clock jumps. *)
let now_us () = (Clock.now () -. !origin) *. 1e6

let emit ev =
  if !count >= !event_limit then incr dropped_count
  else begin
    events := ev :: !events;
    incr count
  end

let with_span ?(cat = "app") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      emit { name; cat; ph = 'X'; ts = t0; dur = now_us () -. t0; args }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let complete ?(cat = "app") ?(args = []) ~ts name =
  if enabled () then
    emit { name; cat; ph = 'X'; ts; dur = now_us () -. ts; args }

let instant ?(cat = "app") ?(args = []) name =
  if enabled () then
    emit { name; cat; ph = 'i'; ts = now_us (); dur = 0.; args }

let counter ?(cat = "app") name series =
  if enabled () then
    emit
      {
        name;
        cat;
        ph = 'C';
        ts = now_us ();
        dur = 0.;
        args = List.map (fun (k, v) -> (k, Float v)) series;
      }

let events_recorded () = !count
let dropped () = !dropped_count

let json_of_arg = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let json_of_event e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (String.make 1 e.ph));
      ("ts", Json.Float e.ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int 0);
    ]
  in
  let base = if e.ph = 'X' then base @ [ ("dur", Json.Float e.dur) ] else base in
  let base = if e.ph = 'i' then base @ [ ("s", Json.String "t") ] else base in
  let base =
    match e.args with
    | [] -> base
    | args ->
        base
        @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  Json.Obj base

let dump_string () =
  (* spans are recorded as they end: sort them by start *)
  let all =
    List.stable_sort (fun a b -> Float.compare a.ts b.ts) (List.rev !events)
  in
  let b = Buffer.create (4096 + (128 * List.length all)) in
  Buffer.add_string b "[\n";
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "mrcp-rm") ]);
      ]
  in
  Json.to_buffer b meta;
  if !dropped_count > 0 then begin
    Buffer.add_string b ",\n";
    Json.to_buffer b
      (Json.Obj
         [
           ("name", Json.String "events_dropped");
           ("ph", Json.String "M");
           ("pid", Json.Int 1);
           ("args", Json.Obj [ ("dropped", Json.Int !dropped_count) ]);
         ])
  end;
  List.iter
    (fun e ->
      Buffer.add_string b ",\n";
      Json.to_buffer b (json_of_event e))
    all;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (dump_string ()))
