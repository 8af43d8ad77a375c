let version = 3

type t = { buf : Buffer.t; mutable seq : int }

let create () = { buf = Buffer.create 4096; seq = 0 }
let events t = t.seq

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
  (* [wall] MUST stay the final key: canonicalization strips it textually. *)
  let tail = match wall with [] -> [] | w -> [ ("wall", Json.Obj w) ] in
  Json.to_buffer t.buf (Json.Obj (base @ fields @ tail));
  Buffer.add_char t.buf '\n'

let to_string t = Buffer.contents t.buf

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let wall_marker = ",\"wall\":{"

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
