(* Only the unterminated tail is ever buffered, and each read is scanned
   from its own first byte, so a byte is copied at most twice (into the
   tail, then into its line) however the stream was chunked. A line
   that outgrows [max_line] stops being buffered: its tail is freed and
   the rest of it is skipped up to its newline. *)

type line = Line of string | Too_long

type t = { tail : Buffer.t; mutable over : bool  (* skipping an over-long line *) }

let max_line = 1 lsl 20

let create () = { tail = Buffer.create 256; over = false }

let rec newline chunk i n =
  if i >= n || Bytes.get chunk i = '\n' then i else newline chunk (i + 1) n

(* Add [len] bytes to the unterminated line, or drop the line once it is
   past the cap. *)
let keep t chunk start len =
  if not t.over then
    if Buffer.length t.tail + len > max_line then begin
      Buffer.reset t.tail;
      t.over <- true
    end
    else Buffer.add_subbytes t.tail chunk start len

(* The line held in [t] ends here. *)
let finish t =
  if t.over then begin
    t.over <- false;
    Too_long
  end
  else begin
    let l = Buffer.contents t.tail in
    Buffer.clear t.tail;
    Line l
  end

let feed t chunk n =
  let rec scan start acc =
    let i = newline chunk start n in
    if i >= n then begin
      keep t chunk start (n - start);
      List.rev acc
    end
    else begin
      let line =
        if Buffer.length t.tail = 0 && (not t.over) && i - start <= max_line then
          Line (Bytes.sub_string chunk start (i - start))
        else begin
          keep t chunk start (i - start);
          finish t
        end
      in
      scan (i + 1) (line :: acc)
    end
  in
  scan 0 []

let pending t = Buffer.length t.tail

let take_rest t = if t.over || Buffer.length t.tail > 0 then Some (finish t) else None

let clear t =
  Buffer.reset t.tail;
  t.over <- false

let flush buf fd =
  let s = Buffer.contents buf in
  let len = String.length s in
  let rec push off =
    if off >= len then off
    else
      match Unix.write_substring fd s off (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
  in
  Buffer.clear buf;
  match push 0 with
  | off ->
    Buffer.add_substring buf s off (len - off);
    true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> false
