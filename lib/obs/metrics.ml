type counter = { mutable c : int }
type gauge = { mutable g : float }

type histo = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  occ : int array;  (* occupancy per bucket *)
}

type metric = C of counter | G of gauge | H of histo
type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 32

let n_buckets = 66

(* exponent floor(log2 v) clamped to [-33, 31], shifted to 1..65 *)
let bucket_of v =
  if v <= 0. then 0
  else begin
    let k = int_of_float (Float.floor (Float.log2 v)) in
    let k = if k < -33 then -33 else if k > 31 then 31 else k in
    k + 34
  end

let bucket_lower_bound i =
  if i < 0 || i >= n_buckets then
    invalid_arg "Metrics.bucket_lower_bound: bucket out of range";
  if i = 0 then neg_infinity else Float.pow 2. (float_of_int (i - 34))

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as another kind" name)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (C c) -> c
  | Some _ -> kind_error name
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t name (C c);
      c

let add c n = c.c <- c.c + n

let gauge t name =
  match Hashtbl.find_opt t name with
  | Some (G g) -> g
  | Some _ -> kind_error name
  | None ->
      let g = { g = 0. } in
      Hashtbl.replace t name (G g);
      g

let set_gauge g v = g.g <- v

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some (H h) -> h
  | Some _ -> kind_error name
  | None ->
      let h =
        {
          count = 0;
          sum = 0.;
          vmin = infinity;
          vmax = neg_infinity;
          occ = Array.make n_buckets 0;
        }
      in
      Hashtbl.replace t name (H h);
      h

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let b = bucket_of v in
  h.occ.(b) <- h.occ.(b) + 1

type histo_data = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histos : (string * histo_data) list;
}

let empty = { counters = []; gauges = []; histos = [] }

let snapshot (t : t) =
  let counters = ref [] and gauges = ref [] and histos = ref [] in
  Hashtbl.iter
    (fun name -> function
      | C c -> counters := (name, c.c) :: !counters
      | G g -> gauges := (name, g.g) :: !gauges
      | H h ->
          let buckets = ref [] in
          for i = n_buckets - 1 downto 0 do
            if h.occ.(i) > 0 then buckets := (i, h.occ.(i)) :: !buckets
          done;
          histos :=
            ( name,
              {
                count = h.count;
                sum = h.sum;
                vmin = h.vmin;
                vmax = h.vmax;
                buckets = !buckets;
              } )
            :: !histos)
    t;
  let by_name (a, _) (b, _) = compare (a : string) b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histos = List.sort by_name !histos;
  }

(* Union of two sorted assoc lists, [combine] applied on key collision. *)
let rec union combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      if ka < kb then (ka, va) :: union combine ta b
      else if kb < ka then (kb, vb) :: union combine a tb
      else (ka, combine va vb) :: union combine ta tb

let merge_histo (a : histo_data) (b : histo_data) =
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    vmin = Float.min a.vmin b.vmin;
    vmax = Float.max a.vmax b.vmax;
    buckets = union ( + ) a.buckets b.buckets;
  }

let merge a b =
  {
    counters = union ( + ) a.counters b.counters;
    gauges = union (fun _ vb -> vb) a.gauges b.gauges;
    histos = union merge_histo a.histos b.histos;
  }

let merge_all = List.fold_left merge empty

let find_counter s name = List.assoc_opt name s.counters
let find_histo s name = List.assoc_opt name s.histos

let quantile (h : histo_data) q =
  if h.count = 0 then Float.nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    (* target rank in 1..count *)
    let r = int_of_float (Float.ceil (q *. float_of_int h.count)) in
    let r = if r < 1 then 1 else if r > h.count then h.count else r in
    let rec go c0 = function
      | [] -> h.vmax (* unreachable when bucket occupancies sum to count *)
      | (i, n) :: rest ->
          if c0 + n < r then go (c0 + n) rest
          else begin
            (* Bucket range clamped to the observed envelope: rank 1 is
               exactly vmin and rank count exactly vmax, so values sitting
               on bucket boundaries come back exact rather than smeared
               across the bucket. *)
            let lo_raw =
              if i = 0 then Float.min h.vmin 0. else bucket_lower_bound i
            in
            let hi_raw =
              if i = 0 then 0.
              else if i = n_buckets - 1 then h.vmax
              else bucket_lower_bound (i + 1)
            in
            let lo = Float.max lo_raw h.vmin in
            let hi = Float.min hi_raw h.vmax in
            let hi = if hi < lo then lo else hi in
            if r = h.count then hi
            else if n <= 1 then lo
            else
              let pos = float_of_int (r - c0 - 1) /. float_of_int (n - 1) in
              lo +. (pos *. (hi -. lo))
          end
    in
    go 0 h.buckets
  end

let prom_sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Json.to_string (Json.Float v)

let to_prometheus ?(namespace = "mrcp") s =
  let b = Buffer.create 4096 in
  let line name v = Printf.bprintf b "%s %s\n" name v in
  let full k = namespace ^ "_" ^ prom_sanitize k in
  List.iter
    (fun (k, v) ->
      let n = full k ^ "_total" in
      Printf.bprintf b "# TYPE %s counter\n" n;
      line n (string_of_int v))
    s.counters;
  List.iter
    (fun (k, v) ->
      let n = full k in
      Printf.bprintf b "# TYPE %s gauge\n" n;
      line n (prom_float v))
    s.gauges;
  List.iter
    (fun (k, (h : histo_data)) ->
      let n = full k in
      Printf.bprintf b "# TYPE %s histogram\n" n;
      let cum = ref 0 in
      List.iter
        (fun (i, occ) ->
          cum := !cum + occ;
          let le =
            if i >= n_buckets - 1 then infinity else bucket_lower_bound (i + 1)
          in
          if le < infinity then
            Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" n (prom_float le)
              !cum)
        h.buckets;
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" n h.count;
      line (n ^ "_sum") (prom_float h.sum);
      line (n ^ "_count") (string_of_int h.count))
    s.histos;
  Buffer.contents b

let to_json s =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, (h : histo_data)) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int h.count);
                     ("sum", Json.Float h.sum);
                     ("min", Json.Float (if h.count = 0 then 0. else h.vmin));
                     ("max", Json.Float (if h.count = 0 then 0. else h.vmax));
                     ( "buckets",
                       Json.List
                         (List.map
                            (fun (i, n) ->
                              Json.Obj
                                [
                                  ("ge", Json.Float (bucket_lower_bound i));
                                  ("n", Json.Int n);
                                ])
                            h.buckets) );
                   ] ))
             s.histos) );
    ]

let pp fmt s =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-40s %d@," k v)
    s.counters;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-40s %g@," k v)
    s.gauges;
  List.iter
    (fun (k, (h : histo_data)) ->
      if h.count = 0 then Format.fprintf fmt "%-40s n=0@," k
      else
        Format.fprintf fmt "%-40s n=%d sum=%g mean=%g min=%g max=%g@," k
          h.count h.sum
          (h.sum /. float_of_int h.count)
          h.vmin h.vmax)
    s.histos;
  Format.fprintf fmt "@]"
