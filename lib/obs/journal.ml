let version = 3

type t = { buf : Buffer.t; mutable seq : int }

let create () = { buf = Buffer.create 4096; seq = 0 }
let events t = t.seq

let wall_marker = ",\"wall\":{"

(* The wall object, closing the line's object too.  A finite float field
   is formatted once with [%.17g], which round-trips every float, where
   {!Json.Float}'s shortest form formats twice and parses once to find it.
   The wall is outside the canonical form, so its longer text moves no
   fingerprint, and a reader still recovers the exact float.  Any other
   value (a metrics snapshot) is written as {!Json} writes it. *)
let add_wall b wall =
  Buffer.add_string b wall_marker;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.to_buffer b (Json.String k);
      Buffer.add_char b ':';
      match v with
      | Json.Float f when Float.is_finite f -> Printf.bprintf b "%.17g" f
      | v -> Json.to_buffer b v)
    wall;
  Buffer.add_string b "}}"

let event t ~t_ms ?(wall = []) ev fields =
  let seq = t.seq in
  t.seq <- seq + 1;
  let base =
    [
      ("v", Json.Int version);
      ("seq", Json.Int seq);
      ("t", Json.Int t_ms);
      ("ev", Json.String ev);
    ]
  in
  let b = t.buf in
  Json.to_buffer b (Json.Obj (base @ fields));
  (* [wall] MUST stay the final key: canonicalization strips it textually.
     It reopens the object just closed. *)
  if wall <> [] then begin
    Buffer.truncate b (Buffer.length b - 1);
    add_wall b wall
  end;
  Buffer.add_char b '\n'

let to_string t = Buffer.contents t.buf

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let last_index_of ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i < 0 then None
    else if String.sub s i n = sub then Some i
    else go (i - 1)
  in
  if n > m then None else go (m - n)

let canonical_line line =
  match last_index_of ~sub:wall_marker line with
  | None -> line
  | Some i -> String.sub line 0 i ^ "}"

let fingerprint text =
  let b = Buffer.create (String.length text) in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then begin
           Buffer.add_string b (canonical_line line);
           Buffer.add_char b '\n'
         end);
  Digest.to_hex (Digest.string (Buffer.contents b))
