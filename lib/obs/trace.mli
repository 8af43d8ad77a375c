(** Span-based tracing into one in-memory sink.

    Disabled by default (the noop state): every probe first reads one bool
    and returns, so instrumented hot paths cost a single load — the
    solver's search trajectory is bit-identical with tracing on or off (only
    wall-clock side channels differ).

    Output is the Chrome trace event format (one JSON event object per line,
    wrapped in a JSON array), loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.  Complete events ([ph = "X"])
    carry microsecond start + duration; every event has [tid] 0. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val start : ?limit:int -> unit -> unit
(** Enable tracing and clear previously recorded events.  [limit] caps the
    number of events recorded (default [2^20]); events beyond the cap are
    counted and reported as a [dropped] metadata event rather than
    recorded. *)

val stop : unit -> unit
(** Disable tracing.  Recorded events are kept until the next {!start}. *)

val enabled : unit -> bool
(** One load — this is the hot-path guard. *)

val now_us : unit -> float
(** Microseconds since {!start} ({!Clock}-monotonic). *)

val with_span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records a complete event, including
    when [f] raises.  When tracing is disabled it is exactly [f ()]. *)

val complete : ?cat:string -> ?args:(string * arg) list -> ts:float -> string -> unit
(** Manual span end: records a complete event from [ts] (a {!now_us} value
    captured at span start) to now.  For hot paths where argument values are
    only known at span end, or where closure allocation matters. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** Point event ([ph = "i"]), e.g. an incumbent improvement. *)

val counter : ?cat:string -> string -> (string * float) list -> unit
(** Counter event ([ph = "C"]): named series sampled at the current time,
    e.g. the simulator's virtual-clock-vs-wall-clock series. *)

val events_recorded : unit -> int
(** Events currently buffered (for tests). *)

val dropped : unit -> int
(** Events discarded over the cap since {!start}; lets CLI summaries
    report the loss without parsing the trace file. *)

val dump_string : unit -> string
(** Serialize the buffered events (sorted by timestamp) to the Chrome trace
    array format, one event per line. *)

val write : path:string -> unit
(** {!dump_string} to a file. *)
