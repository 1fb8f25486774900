type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

exception Bad of string

let max_depth = 512

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "byte %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c (Printf.sprintf "expected '%c', found '%c'" ch x)
  | None -> fail c (Printf.sprintf "expected '%c', found end of input" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad hex digit in \\u escape"

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are combined. *)
let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let read_u16 c =
  let d () =
    match peek c with
    | Some ch ->
      advance c;
      hex_digit c ch
    | None -> fail c "unterminated \\u escape"
  in
  let a = d () in
  let b = d () in
  let x = d () in
  let y = d () in
  (a lsl 12) lor (b lsl 8) lor (x lsl 4) lor y

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail c "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let hi = read_u16 c in
           if hi >= 0xD800 && hi <= 0xDBFF then begin
             (* surrogate pair *)
             expect c '\\';
             expect c 'u';
             let lo = read_u16 c in
             if lo < 0xDC00 || lo > 0xDFFF then
               fail c "unpaired UTF-16 surrogate"
             else
               utf8_add buf
                 (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
           end
           else if hi >= 0xDC00 && hi <= 0xDFFF then
             fail c "unpaired UTF-16 surrogate"
           else utf8_add buf hi
         | _ -> fail c (Printf.sprintf "bad escape '\\%c'" ch));
        go ()
    )
    | Some ch when Char.code ch < 0x20 -> fail c "control byte in string"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    while match peek c with Some ch when pred ch -> advance c; true | _ -> false
    do ()
    done
  in
  if peek c = Some '-' then advance c;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek c = Some '.' then begin
    advance c;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek c with
   | Some ('e' | 'E') ->
     advance c;
     (match peek c with Some ('+' | '-') -> advance c | _ -> ());
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail c (Printf.sprintf "bad number %S" text)

let rec parse_value c depth =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ()
        | Some '}' -> advance c
        | _ -> fail c "expected ',' or '}' in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c (depth + 1) in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements ()
        | Some ']' -> advance c
        | _ -> fail c "expected ',' or ']' in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* --- printing -------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      (* JSON has no NaN/infinity; null is the least-surprising stand-in *)
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let str_field key v = Option.bind (member key v) to_str
let num_field key v = Option.bind (member key v) to_num
