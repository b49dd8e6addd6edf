(** Minimal JSON tree, serializer and parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers below 1e15 print exactly with one decimal.  Anything else
   prints in the shortest of %.12g, %.15g and %.17g that reads back as
   the same float (%.17g always does), so epoch nanoseconds keep their
   low digits and every value %.12g already printed exactly prints as
   before.  A bare digit string gets ".0" so it parses back as a float. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else begin
    let exact s = float_of_string s = f in
    let s = Printf.sprintf "%.12g" f in
    let s = if exact s then s else Printf.sprintf "%.15g" f in
    let s = if exact s then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
    then Buffer.add_string buf ".0"
  end

let rec to_buffer buf (j : t) =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | List js ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf j)
      js;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let rec pretty_to_buffer buf indent (j : t) =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match j with
  | List [] | Obj [] | Null | Bool _ | Int _ | Float _ | Str _ ->
    to_buffer buf j
  | List js ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        pretty_to_buffer buf (indent + 2) j)
      js;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        add_escaped buf k;
        Buffer.add_string buf ": ";
        pretty_to_buffer buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 512 in
  pretty_to_buffer buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the raw string                      *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance p;
    skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail "expected '%c' at offset %d, found '%c'" c p.pos c'
  | None -> fail "expected '%c' at offset %d, found end of input" c p.pos

let parse_literal p word (v : t) =
  if
    p.pos + String.length word <= String.length p.src
    && String.sub p.src p.pos (String.length word) = word
  then begin
    p.pos <- p.pos + String.length word;
    v
  end
  else fail "invalid literal at offset %d" p.pos

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail "unterminated string at offset %d" p.pos
    | Some '"' -> advance p
    | Some '\\' -> begin
      advance p;
      (match peek p with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        if p.pos + 4 >= String.length p.src then
          fail "truncated \\u escape at offset %d" p.pos;
        let hex = String.sub p.src (p.pos + 1) 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail "bad \\u escape at offset %d" p.pos
        in
        (* encode the code point as UTF-8 (surrogate pairs not recombined;
           the tracer never emits them) *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        p.pos <- p.pos + 4
      | _ -> fail "bad escape at offset %d" p.pos);
      advance p;
      loop ()
    end
    | Some c ->
      Buffer.add_char buf c;
      advance p;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let rec loop () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+') ->
      advance p;
      loop ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance p;
      loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail "bad number %S at offset %d" text start
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> begin
      (* very large integers fall back to float *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" text start
    end

let rec parse_value p : t =
  skip_ws p;
  match peek p with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws p;
        let key = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance p;
          List.rev ((key, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" p.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          elems (v :: acc)
        | Some ']' ->
          advance p;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" p.pos
      in
      List (elems [])
    end
  | Some '"' -> Str (parse_string_body p)
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail "unexpected character '%c' at offset %d" c p.pos

let parse (s : string) : t =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then
    fail "trailing garbage at offset %d" p.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_list_opt = function List js -> Some js | _ -> None

let get key j =
  match member key j with
  | Some v -> v
  | None -> fail "missing key %S" key

let get_int key j =
  match to_int_opt (get key j) with
  | Some n -> n
  | None -> fail "key %S is not an int" key

let get_float key j =
  match to_float_opt (get key j) with
  | Some f -> f
  | None -> fail "key %S is not a number" key

let get_string key j =
  match to_string_opt (get key j) with
  | Some s -> s
  | None -> fail "key %S is not a string" key

let get_list key j =
  match to_list_opt (get key j) with
  | Some l -> l
  | None -> fail "key %S is not a list" key
