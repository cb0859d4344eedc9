type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Plain characters are copied a run at a time; only the characters
   JSON must escape are written one by one. *)
let write_escaped buf s =
  let n = String.length s in
  let rec go from i =
    if i = n then Buffer.add_substring buf s from (i - from)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s from (i - from);
        (match c with
         | '"' -> Buffer.add_string buf "\\\""
         | '\\' -> Buffer.add_string buf "\\\\"
         | '\n' -> Buffer.add_string buf "\\n"
         | '\r' -> Buffer.add_string buf "\\r"
         | '\t' -> Buffer.add_string buf "\\t"
         | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    write_escaped buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        write_escaped buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let output oc v = output_string oc (to_string v)

(* Recursive-descent parser for the same subset [write] emits. Numbers
   parse as [Int] when they are syntactically integral and fit, [Float]
   otherwise; "\uXXXX" escapes outside ASCII are kept verbatim (the
   emitter never produces them for the data this repo round-trips). *)
exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  (* the end of the run of plain string characters from [i] *)
  let rec run_end i =
    if i < n && match String.unsafe_get s i with '"' | '\\' -> false | _ -> true then
      run_end (i + 1)
    else i
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> fail "bad \\u escape"
  in
  (* A string without escapes is one [String.sub]; otherwise each run
     between escapes is copied whole. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    pos := run_end start;
    if !pos < n && s.[!pos] = '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create ((2 * (!pos - start)) + 16) in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | _ ->
          (* a backslash *)
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             if !pos + 4 >= n then fail "truncated \\u escape";
             let code = ref 0 in
             for k = 1 to 4 do
               code := (!code lsl 4) lor hex_digit s.[!pos + k]
             done;
             let code = !code in
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
             pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          let from = !pos in
          pos := run_end from;
          Buffer.add_substring buf s from (!pos - from);
          go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let integral = ref true in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' -> true
          | '.' | 'e' | 'E' | '+' | '-' ->
            integral := false;
            true
          | _ -> false)
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "malformed number";
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    else Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let parse_opt s = match parse s with v -> Some v | exception Parse_error _ -> None

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
