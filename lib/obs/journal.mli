(** The decision journal: an append-only, versioned JSONL log of every
    scheduling decision the manager and the open-system simulator make.

    Each line is one event object with a fixed envelope —
    [{"v":1,"seq":N,"t":T,"ev":KIND, ...payload, "wall":{...}}] — where

    - [v] is the schema {!version} (bumped on incompatible change; readers
      must reject versions they don't know),
    - [seq] is a 0-based line counter (gap-free within one journal),
    - [t] is the simulator's {e virtual} clock in milliseconds,
    - [ev] names the event kind, and
    - [wall], always the {e last} key when present, holds every
      wall-clock-measured field (elapsed seconds, metrics snapshots).

    The envelope split is the determinism contract: everything outside
    [wall] is a pure function of the workload, the seed and the solver
    configuration, so two runs with the same seed produce byte-identical
    journals {e modulo the [wall] sub-objects}.  {!fingerprint} hashes
    exactly that canonical form, and the audit tool reads the [wall]
    fields to recompute wall-clock totals (scheduler overhead [O]).

    A journal is a plain single-domain buffer owned by whoever created it
    (the CLI) and threaded by option into the manager/simulator — when no
    journal is configured, producers skip all event assembly, so the
    journaling-off solver trajectory is bit-identical to a build without
    this module. *)

type t

val version : int
(** Current schema version (written into every line's [v] field).
    v2 added the fault events ("resource-crash", "resource-rejoin",
    "task-attempt-failed", "straggler") and the run-end fault totals
    (crash/rejoin/failure/straggler counters, [lost_work_ms]); v1 readers
    must reject it.  v3 dropped the invoke line's [solve.restarts] and
    [session.reused_nogoods] fields. *)

val create : unit -> t

val event :
  t ->
  t_ms:int ->
  ?wall:(string * Json.t) list ->
  string ->
  (string * Json.t) list ->
  unit
(** [event j ~t_ms kind payload] appends one line.  [t_ms] is virtual
    time; [wall] fields are wall-clock measurements, kept out of the
    canonical form.  A finite [Float] field of [wall] is written with
    [%.17g]: exact, in one format, but not always the shortest form
    {!Json.Float} takes elsewhere.  Payload keys must not collide with the
    envelope ([v]/[seq]/[t]/[ev]/[wall]). *)

val events : t -> int
(** Number of lines appended so far (the next line's [seq]). *)

val to_string : t -> string
val write : t -> path:string -> unit

val canonical_line : string -> string
(** One journal line with its trailing [wall] sub-object stripped — the
    deterministic part. *)

val fingerprint : string -> string
(** MD5 hex digest of the canonicalized journal text (each line passed
    through {!canonical_line}).  Equal fingerprints across same-seed runs
    is the replay-determinism acceptance check. *)
