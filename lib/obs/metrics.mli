(** Metrics registry: named counters, gauges and log-scale histograms, with
    an immutable snapshot/merge API.

    A registry is a plain mutable object — it is {e not} thread-safe.
    Snapshots are immutable: each solve or run takes a {!snapshot} of its
    own registry, and a caller {!merge}s the snapshots it collects.

    Metric names are flat strings; the repo convention is a [/]-separated
    path whose first segment is the subsystem, e.g. [solver/nodes],
    [prop/cumulative/fires], [manager/invoke_s]. *)

type t
(** A mutable registry. *)

val create : unit -> t

(** {2 Instruments}

    [counter]/[gauge]/[histogram] find-or-create by name; re-registering an
    existing name with a different instrument kind raises
    [Invalid_argument]. *)

type counter
type gauge
type histo

val counter : t -> string -> counter
val add : counter -> int -> unit

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : t -> string -> histo

val observe : histo -> float -> unit
(** Record one value into its log-2 bucket (see {!bucket_of}). *)

(** {2 Log-scale bucketing}

    Histograms use base-2 log-scale buckets so that one histogram spans
    nanoseconds to hours.  There are {!n_buckets} = 66 buckets:
    - bucket 0 holds every value [v <= 0];
    - bucket [i] (1 ≤ i ≤ 65) holds [2^(i-34) <= v < 2^(i-33)], i.e. the
      exponent range −33..31 shifted to 1..65;
    - values below [2^-33] land in bucket 1, values ≥ [2^31] in bucket 65
      (the extreme buckets absorb the tails). *)

val n_buckets : int

val bucket_of : float -> int
(** Bucket index of a value (0 ≤ result < {!n_buckets}). *)

val bucket_lower_bound : int -> float
(** Inclusive lower bound of a bucket; [neg_infinity] for bucket 0.
    @raise Invalid_argument outside [0, n_buckets). *)

(** {2 Snapshots} *)

type histo_data = {
  count : int;
  sum : float;
  vmin : float;  (** smallest observed value; [infinity] when [count = 0] *)
  vmax : float;  (** largest observed value; [neg_infinity] when [count = 0] *)
  buckets : (int * int) list;  (** (bucket index, occupancy), occupied only *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histos : (string * histo_data) list;  (** sorted by name *)
}

val empty : snapshot

val snapshot : t -> snapshot
(** Immutable copy of the registry's current state. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: counters add, histograms add bucketwise (count/sum add,
    min/max widen), and for gauges the right operand wins on collision (a
    gauge is a last-observed value, not an accumulator). *)

val merge_all : snapshot list -> snapshot

val find_counter : snapshot -> string -> int option
val find_histo : snapshot -> string -> histo_data option

val quantile : histo_data -> float -> float
(** [quantile h q] estimates the [q]-quantile ([q] clamped to [0, 1]) from
    the log-2 buckets by linear rank interpolation inside the bucket
    holding the target rank, with the bucket range clamped to
    [vmin, vmax].  Exact for [q = 0] ([vmin]) and [q = 1] ([vmax]), and
    exact whenever every observation in the target bucket sits on the
    bucket's lower bound; otherwise off by at most the bucket width (a
    factor of 2).  [nan] when [count = 0]. *)

val to_prometheus : ?namespace:string -> snapshot -> string
(** Prometheus text exposition (version 0.0.4).  Names are
    [<namespace>_<metric>] (default namespace ["mrcp"]) with non
    [[a-zA-Z0-9_:]] characters mapped to [_]; counters get a [_total]
    suffix, histograms emit cumulative [_bucket{le="..."}] series over the
    occupied log-2 buckets plus [_sum]/[_count]. *)

val to_json : snapshot -> Json.t

val pp : Format.formatter -> snapshot -> unit
(** Human-readable multi-line listing (used by [--metrics] reports). *)
