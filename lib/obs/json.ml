type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped_char b c =
  match c with
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\t' -> Buffer.add_string b "\\t"
  | '\r' -> Buffer.add_string b "\\r"
  | c when Char.code c < 0x20 ->
      Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
  | c -> Buffer.add_char b c

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Keys and most values need no escaping: copy those as they are. *)
let add_escaped b s =
  if String.exists needs_escape s then String.iter (add_escaped_char b) s
  else Buffer.add_string b s

let escape s =
  let b = Buffer.create (String.length s) in
  add_escaped b s;
  Buffer.contents b

(* Shortest of %.12g/%.17g that round-trips: journal consumers (the audit
   oracle) must recover the exact float the producer measured. *)
let float_repr v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* [string_of_int] goes through the C formatter; journals write many ints *)
let rec add_digits b v =
  if v >= 10 then add_digits b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))

let add_int b v =
  if v >= 0 then add_digits b v
  else if v = min_int then Buffer.add_string b (string_of_int v)
  else begin
    Buffer.add_char b '-';
    add_digits b (-v)
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> add_int b v
  | Float v ->
      if Float.is_finite v then Buffer.add_string b (float_repr v)
      else Buffer.add_string b "null"
  | String s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* -- parsing ------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    &&
    match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    value)
  else fail c (Printf.sprintf "expected '%s'" word)

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then fail c "unterminated string"
    else
      match c.src.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          if c.pos + 1 >= String.length c.src then fail c "bad escape";
          (match c.src.[c.pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if c.pos + 5 >= String.length c.src then fail c "bad \\u escape";
              let hex = String.sub c.src (c.pos + 2) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail c "bad \\u escape"
              in
              (* Journal producers only escape control chars; decode the
                 BMP code point as UTF-8 and don't bother with surrogate
                 pairs. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then (
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
              else (
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))));
              c.pos <- c.pos + 4
          | _ -> fail c "bad escape");
          c.pos <- c.pos + 2;
          go ()
      | ch ->
          Buffer.add_char b ch;
          c.pos <- c.pos + 1;
          go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && is_num_char c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      c.pos <- c.pos + 1;
      String (parse_string_body c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then (
        c.pos <- c.pos + 1;
        List [])
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then (
        c.pos <- c.pos + 1;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  try
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage"
    else Ok v
  with Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
