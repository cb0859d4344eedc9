(* Unit tests for the observability layer itself: the JSON builder,
   the ring-buffered trace (wrap-around and global sequence numbers),
   the metrics counters/histogram, and the event serialisation. *)

module Json = Sofia.Obs.Json
module Event = Sofia.Obs.Event
module Trace = Sofia.Obs.Trace
module Metrics = Sofia.Obs.Metrics
module Obs = Sofia.Obs.Obs

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_json_scalars () =
  check_str "null" "null" (Json.to_string Json.Null);
  check_str "bool" "true" (Json.to_string (Json.Bool true));
  check_str "int" "-42" (Json.to_string (Json.Int (-42)));
  check_str "float" "1.5" (Json.to_string (Json.Float 1.5));
  check_str "nan -> null" "null" (Json.to_string (Json.Float nan));
  check_str "inf -> null" "null" (Json.to_string (Json.Float infinity))

let test_json_escaping () =
  check_str "quotes and backslash" {|"a\"b\\c"|} (Json.to_string (Json.Str {|a"b\c|}));
  check_str "newline and tab" {|"l1\nl2\tend"|} (Json.to_string (Json.Str "l1\nl2\tend"));
  check_str "control char" "\"\\u0001\"" (Json.to_string (Json.Str "\x01"))

let test_json_nesting () =
  let j =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("o", Json.Obj [ ("k", Json.Str "v") ]) ]
  in
  check_str "nested" {|{"xs":[1,2],"o":{"k":"v"}}|} (Json.to_string j)

let ev pc = Event.Retire { pc }

let test_trace_basics () =
  let t = Trace.create ~capacity:4 () in
  check_int "empty length" 0 (Trace.length t);
  Trace.emit t (ev 0);
  Trace.emit t (ev 4);
  Trace.emit t (ev 8);
  check_int "length" 3 (Trace.length t);
  check_int "total" 3 (Trace.total t);
  check_int "dropped" 0 (Trace.dropped t);
  let seqs = ref [] in
  Trace.iteri t (fun seq _ -> seqs := seq :: !seqs);
  Alcotest.(check (list int)) "seqs oldest-first" [ 0; 1; 2 ] (List.rev !seqs)

let test_trace_wraparound () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit t (ev (4 * i))
  done;
  check_int "length capped" 4 (Trace.length t);
  check_int "total keeps counting" 10 (Trace.total t);
  check_int "dropped" 6 (Trace.dropped t);
  let entries = ref [] in
  Trace.iteri t (fun seq e -> entries := (seq, e) :: !entries);
  let entries = List.rev !entries in
  Alcotest.(check (list int)) "global seqs survive the wrap" [ 6; 7; 8; 9 ]
    (List.map fst entries);
  List.iteri
    (fun i (_, e) ->
      match e with
      | Event.Retire { pc } -> check_int "retained events are the newest" (4 * (6 + i)) pc
      | _ -> Alcotest.fail "unexpected event")
    entries;
  Trace.clear t;
  check_int "clear empties" 0 (Trace.length t)

let test_trace_jsonl () =
  let t = Trace.create ~capacity:8 () in
  Trace.emit t (Event.Block_fetch { target = 0x40; prev_pc = 0x1c });
  Trace.emit t (Event.Mac_verify { block_base = 0x40; kind = Event.Exec_mac; ok = false });
  Trace.emit t (Event.Violation { kind = "mac_mismatch"; address = 0x40 });
  let path = Filename.temp_file "sofia_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_jsonl t ~path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one line per event" 3 (List.length lines);
      List.iteri
        (fun i line ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d carries its seq" i)
            true
            (String.length line > 8 && String.sub line 0 8 = Printf.sprintf "{\"seq\":%d" i))
        lines;
      Alcotest.(check bool) "violation serialised" true
        (List.exists
           (fun l ->
             let contains needle =
               let n = String.length needle and h = String.length l in
               let rec go i = i + n <= h && (String.sub l i n = needle || go (i + 1)) in
               go 0
             in
             contains {|"ev":"violation"|} && contains {|"kind":"mac_mismatch"|})
           lines))

let test_event_names_distinct () =
  let events =
    [
      Event.Block_fetch { target = 0; prev_pc = 0 };
      Event.Memo_hit { target = 0; prev_pc = 0 };
      Event.Memo_miss { target = 0; prev_pc = 0 };
      Event.Edge_decrypt { target = 0; prev_pc = 0; words = 8 };
      Event.Mac_verify { block_base = 0; kind = Event.Exec_mac; ok = true };
      Event.Mux_select { block_base = 0; path = 1 };
      Event.Block_enter { base = 0; icache_hit = true };
      Event.Retire { pc = 0 };
      Event.Violation { kind = "x"; address = 0 };
      Event.Reset { kind = "x"; address = 0 };
      Event.Halt { code = 0 };
      Event.Fuel_exhausted;
      Event.Custom { name = "n"; value = 0 };
    ]
  in
  let names = List.map Event.name events in
  check_int "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_metrics_counters () =
  let m = Metrics.create () in
  m.Metrics.block_fetches <- 3;
  m.Metrics.mac_failures <- 1;
  let l = Metrics.counters m in
  Alcotest.(check (option int)) "bumped" (Some 3) (List.assoc_opt "block_fetches" l);
  Alcotest.(check (option int)) "bumped too" (Some 1) (List.assoc_opt "mac_failures" l);
  Alcotest.(check (option int)) "untouched" (Some 0) (List.assoc_opt "retires" l);
  Metrics.reset m;
  check_int "reset" 0 m.Metrics.block_fetches

let test_metrics_histogram () =
  let h = Metrics.hist_create () in
  List.iter (Metrics.hist_observe h) [ 1; 2; 3; 100 ];
  check_int "count" 4 h.Metrics.h_count;
  check_int "sum" 106 h.Metrics.h_sum;
  check_int "min" 1 h.Metrics.h_min;
  check_int "max" 100 h.Metrics.h_max;
  Alcotest.(check (float 0.001)) "mean" 26.5 (Metrics.hist_mean h);
  (* 1 -> bucket 0; 2, 3 -> bucket 1; 100 -> bucket 6 *)
  check_int "bucket 0" 1 h.Metrics.buckets.(0);
  check_int "bucket 1" 2 h.Metrics.buckets.(1);
  check_int "bucket 6" 1 h.Metrics.buckets.(6);
  Metrics.hist_reset h;
  check_int "reset count" 0 h.Metrics.h_count

let test_obs_handles () =
  Alcotest.(check bool) "none is silent" false (Obs.tracing Obs.none);
  Alcotest.(check bool) "none is dead" false (Obs.live Obs.none);
  let t = Trace.create ~capacity:2 () in
  let o = Obs.create ~trace:t () in
  Alcotest.(check bool) "trace -> tracing" true (Obs.tracing o);
  Obs.emit o (ev 0);
  check_int "emit reaches the ring" 1 (Trace.length t);
  let om = Obs.create ~metrics:(Metrics.create ()) () in
  Alcotest.(check bool) "metrics-only: live but not tracing" true
    (Obs.live om && not (Obs.tracing om))

(* emit -> parse must be the identity on everything the repo writes
   (bench reports, metric snapshots, event lines); [bench_compare]
   relies on it to read committed baselines back *)
let test_json_parse_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool false;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 1.5;
      Json.Str "a\"b\\c\nd\te";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [
          ("schema", Json.Str "sofia-bench/2");
          ("created_unix", Json.Int 1786000000);
          ("rows", Json.List [ Json.Obj [ ("name", Json.Str "x"); ("ns", Json.Float 17.25) ] ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      Alcotest.(check bool) ("roundtrip " ^ s) true (Json.parse s = v))
    values;
  (* whitespace tolerance and member lookup *)
  let v = Json.parse " { \"a\" : [ 1 , 2.5 ] , \"b\" : null } " in
  Alcotest.(check bool) "member a" true
    (Json.member "a" v = Some (Json.List [ Json.Int 1; Json.Float 2.5 ]));
  Alcotest.(check bool) "member missing" true (Json.member "zz" v = None)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (Json.parse_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* ---- JSON strings: escapes, runs and error offsets ---- *)

(* The reference the run-copying string code is held to: the escape
   writer and the string reader taken a character at a time. The one
   difference from the old reader is on purpose: a [\u] escape whose
   four characters are not all hex digits fails as a parse error
   ([int_of_string] used to raise [Failure] out of [parse]). *)
let ref_escape s =
  let buf = Buffer.create 16 in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [text] holds one JSON string value, maybe cut short *)
let ref_parse_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s at offset %d" msg !pos) in
  let buf = Buffer.create 16 in
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let rec go () =
    if !pos >= n then fail "unterminated string"
    else
      match text.[!pos] with
      | '"' ->
        incr pos;
        if !pos = n then Ok (Buffer.contents buf) else fail "trailing characters"
      | '\\' -> (
        incr pos;
        if !pos >= n then fail "unterminated escape"
        else
          let plain c =
            Buffer.add_char buf c;
            incr pos;
            go ()
          in
          match text.[!pos] with
          | '"' -> plain '"'
          | '\\' -> plain '\\'
          | '/' -> plain '/'
          | 'n' -> plain '\n'
          | 'r' -> plain '\r'
          | 't' -> plain '\t'
          | 'b' -> plain '\b'
          | 'f' -> plain '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape"
            else
              let hex = String.sub text (!pos + 1) 4 in
              if not (String.for_all is_hex hex) then fail "bad \\u escape"
              else begin
                let code = int_of_string ("0x" ^ hex) in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
                pos := !pos + 5;
                go ()
              end
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c))
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
  in
  pos := 1;
  go ()

(* one piece of a JSON string's text: plain bytes (control and
   non-ASCII bytes included), a short escape, a [\u] escape of any
   code in either case, or a malformed escape *)
let gen_piece =
  let open QCheck.Gen in
  let plain_char =
    map Char.chr
      (oneof [ int_range 0x20 0x7e; int_range 0 0x1f; int_range 0x80 0xff ])
  in
  frequency
    [
      ( 4,
        map
          (String.map (function '"' | '\\' -> 'x' | c -> c))
          (string_size ~gen:plain_char (int_range 0 12)) );
      (2, map (fun c -> "\\" ^ String.make 1 c) (oneofl [ '"'; '\\'; '/'; 'n'; 'r'; 't'; 'b'; 'f' ]));
      ( 2,
        map2
          (fun code upper ->
            let h = Printf.sprintf "%04x" code in
            "\\u" ^ if upper then String.uppercase_ascii h else h)
          (oneof [ int_range 0 0x7f; int_range 0x80 0xffff ])
          bool );
      (1, oneofl [ "\\q"; "\\u12g4"; "\\u1_23"; "\\U0041"; "\\x" ]);
    ]

let prop_json_strings =
  QCheck.Test.make ~count:500 ~name:"json strings: runs = character reference"
    QCheck.(
      make
        ~print:(fun (pieces, cut) -> Printf.sprintf "%S cut %d" (String.concat "" pieces) cut)
        Gen.(pair (list_size (int_range 0 12) gen_piece) (int_range 0 1000)))
    (fun (pieces, cut) ->
      let text = "\"" ^ String.concat "" pieces ^ "\"" in
      let outcome t =
        match Json.parse t with
        | Json.Str v -> Ok v
        | _ -> Error "not a string"
        | exception Json.Parse_error m -> Error m
      in
      (* whole, and cut short anywhere after the opening quote *)
      let short = String.sub text 0 (1 + (cut mod String.length text)) in
      let same t =
        outcome t = ref_parse_string t
        || QCheck.Test.fail_reportf "%S: parse %s, reference %s" t
             (match outcome t with Ok v -> Printf.sprintf "%S" v | Error m -> m)
             (match ref_parse_string t with Ok v -> Printf.sprintf "%S" v | Error m -> m)
      in
      same text && same short
      &&
      match ref_parse_string text with
      | Error _ -> true
      | Ok v ->
        let emitted = Json.to_string (Json.Str v) in
        emitted = "\"" ^ ref_escape v ^ "\""
        && Json.parse emitted = Json.Str v
        && Json.to_string (Json.Obj [ (v, Json.Str v) ])
           = "{\"" ^ ref_escape v ^ "\":\"" ^ ref_escape v ^ "\"}")

let suite =
  [
    Alcotest.test_case "json scalars" `Quick test_json_scalars;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json nesting" `Quick test_json_nesting;
    Alcotest.test_case "json parse roundtrip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    QCheck_alcotest.to_alcotest prop_json_strings;
    Alcotest.test_case "trace basics" `Quick test_trace_basics;
    Alcotest.test_case "trace wrap-around" `Quick test_trace_wraparound;
    Alcotest.test_case "trace jsonl" `Quick test_trace_jsonl;
    Alcotest.test_case "event names distinct" `Quick test_event_names_distinct;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "obs handles" `Quick test_obs_handles;
  ]
