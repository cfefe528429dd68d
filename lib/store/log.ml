(* Durability latencies feed the service metrics plane: every framed
   write and every fsync lands in a histogram, so a shard's p99 decide
   latency can be decomposed into compute vs disk without re-running
   the bench harness.  Both record only while [Obs] is enabled. *)
let h_append = Obs.Histogram.make "store.append"
let h_fsync = Obs.Histogram.make "store.fsync"

type fsync_policy = Never | Every of int | Always

let fsync_policy_to_string = function
  | Never -> "never"
  | Always -> "always"
  | Every n -> Printf.sprintf "every:%d" n

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "never" -> Ok Never
  | "always" -> Ok Always
  | other ->
      let bad () =
        Error
          (Printf.sprintf
             "bad fsync policy %S (expected never, always or every:N)" s)
      in
      if String.length other > 6 && String.sub other 0 6 = "every:" then
        match int_of_string_opt (String.sub other 6 (String.length other - 6)) with
        | Some n when n >= 1 -> Ok (Every n)
        | _ -> bad ()
      else bad ()

(* Where a live value sits: which file, and the offset of its frame.
   Every read re-reads the whole frame and checks its CRC, so the bytes
   a reader gets are the bytes that were framed. *)
type location = { in_snapshot : bool; off : int }

type t = {
  dir : string;
  fsync : fsync_policy;
  auto_compact_bytes : int;
  index : (string, location) Hashtbl.t;
  mutable log_write : Unix.file_descr;
  mutable log_read : Unix.file_descr;
  mutable snap_read : Unix.file_descr option;
  mutable log_bytes : int;
  mutable snapshot_bytes : int;
  mutable unsynced : int;
  mutable closed : bool;
  mutable appends : int;
  mutable fsyncs : int;
  mutable compactions : int;
  mutable recovered : int;
  mutable truncated_bytes : int;
  mutable read_only : bool;
  m : Mutex.t;
}

exception Append_failed of string

let snapshot_file dir = Filename.concat dir "snapshot.bin"
let log_file dir = Filename.concat dir "log.bin"
let header_len = 8
let max_body = 1 lsl 30

let u32_at b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* One framed record: header (body length + CRC of the body) then body. *)
let frame ~kind ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let blen = 5 + klen + vlen in
  if blen > max_body then invalid_arg "Store.Log: record too large";
  let b = Bytes.create (header_len + blen) in
  Bytes.set_int32_le b 0 (Int32.of_int blen);
  Bytes.set b 8 kind;
  Bytes.set_int32_le b 9 (Int32.of_int klen);
  Bytes.blit_string key 0 b 13 klen;
  Bytes.blit_string value 0 b (13 + klen) vlen;
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.digest_bytes b header_len blen));
  b

let write_all fd b =
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let read_exactly fd b off len =
  let rec go off len =
    if len = 0 then true
    else
      match Unix.read fd b off len with
      | 0 -> false
      | n -> go (off + n) (len - n)
  in
  go off len

(* The one frame parser, shared by recovery and every read: the frame
   at the current offset of [fd] as [Some (kind, key, value, frame_len)]
   when its length, CRC and body layout all check out, [None] when any
   of them does not (including a frame cut short by the end of file). *)
let read_frame fd =
  let header = Bytes.create header_len in
  if not (read_exactly fd header 0 header_len) then None
  else
    let blen = u32_at header 0 and crc = u32_at header 4 in
    if blen < 5 || blen > max_body then None
    else
      let body = Bytes.create blen in
      if not (read_exactly fd body 0 blen) then None
      else if Crc32.digest_bytes body 0 blen <> crc then None
      else
        let kind = Bytes.get body 0 and klen = u32_at body 1 in
        if (kind <> 'P' && kind <> 'D') || klen > blen - 5 then None
        else
          Some
            ( kind,
              Bytes.sub_string body 5 klen,
              Bytes.sub_string body (5 + klen) (blen - 5 - klen),
              header_len + blen )

(* Scan the framed records of [fd] from the start, calling [f] with each
   valid one and its frame offset; stops at the first frame that fails
   [read_frame] and returns the byte offset of the end of the valid
   prefix. *)
let scan fd f =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec go pos =
    match read_frame fd with
    | None -> pos
    | Some (kind, key, _value, frame_len) ->
        f ~kind ~key ~off:pos;
        go (pos + frame_len)
  in
  go 0

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let alive t = if t.closed then invalid_arg "Store.Log: store is closed"

let file_size fd = (Unix.fstat fd).Unix.st_size

let do_fsync t fd =
  (* Failpoint: a lying disk that acks without persisting — only
     observable across a crash, which is exactly what the chaos
     harness's kill -9 step exercises. *)
  if Fault.Failpoint.armed () && Fault.Failpoint.fire "store.fsync.skip" then
    t.fsyncs <- t.fsyncs + 1
  else begin
    Obs.Histogram.time h_fsync (fun () -> Unix.fsync fd);
    t.fsyncs <- t.fsyncs + 1
  end

let open_ ?(fsync = Every 64) ?(auto_compact_bytes = 0) dir =
  (match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let log_write =
    Unix.openfile (log_file dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let log_read = Unix.openfile (log_file dir) [ Unix.O_RDONLY ] 0o644 in
  let snap_read =
    if Sys.file_exists (snapshot_file dir) then
      Some (Unix.openfile (snapshot_file dir) [ Unix.O_RDONLY ] 0o644)
    else None
  in
  let t =
    {
      dir;
      fsync;
      auto_compact_bytes;
      index = Hashtbl.create 256;
      log_write;
      log_read;
      snap_read;
      log_bytes = 0;
      snapshot_bytes = 0;
      unsynced = 0;
      closed = false;
      appends = 0;
      fsyncs = 0;
      compactions = 0;
      recovered = 0;
      truncated_bytes = 0;
      read_only = false;
      m = Mutex.create ();
    }
  in
  (* Recovery.  Both files replay through the same scanner, which
     checks every frame's CRC; nothing else is checked here.  A value is
     checked again, frame and all, each time it is read. *)
  let replay ~in_snapshot ~kind ~key ~off =
    if kind = 'D' then Hashtbl.remove t.index key
    else Hashtbl.replace t.index key { in_snapshot; off }
  in
  (match snap_read with
  | None -> ()
  | Some fd ->
      (* The snapshot is written whole and renamed into place, so a
         short prefix here means a damaged file system, not a torn
         append; tolerate it the same way. *)
      let valid = scan fd (replay ~in_snapshot:true) in
      t.truncated_bytes <- t.truncated_bytes + (file_size fd - valid);
      t.snapshot_bytes <- valid);
  let valid = scan log_read (replay ~in_snapshot:false) in
  let actual = file_size log_read in
  if valid < actual then begin
    t.truncated_bytes <- t.truncated_bytes + (actual - valid);
    Unix.ftruncate log_write valid
  end;
  ignore (Unix.lseek log_write valid Unix.SEEK_SET);
  t.log_bytes <- valid;
  t.recovered <- Hashtbl.length t.index;
  t

(* The value at [loc], if its frame still checks out and is a put of
   [key].  Damage of any kind — flipped bits, a torn write that left the
   file shorter than the index believes, an offset that no longer lands
   on the right frame — reads as "not stored": the caller recomputes,
   it never sees a wrong value, and [compact] never re-seals one. *)
let read_value t ~key loc =
  let fd =
    if loc.in_snapshot then
      match t.snap_read with
      | Some fd -> fd
      | None -> invalid_arg "Store.Log: dangling snapshot location"
    else t.log_read
  in
  ignore (Unix.lseek fd loc.off Unix.SEEK_SET);
  match read_frame fd with
  | Some ('P', key', value, _) when key' = key -> Some value
  | _ -> None

let find t key =
  locked t (fun () ->
      alive t;
      match Hashtbl.find_opt t.index key with
      | None -> None
      | Some loc -> (
          match read_value t ~key loc with
          | Some _ as v -> v
          | None ->
              Hashtbl.remove t.index key;
              None))

let mem t key =
  locked t (fun () ->
      alive t;
      Hashtbl.mem t.index key)

let length t =
  locked t (fun () ->
      alive t;
      Hashtbl.length t.index)

let after_append t =
  t.appends <- t.appends + 1;
  match t.fsync with
  | Always -> do_fsync t t.log_write
  | Never -> ()
  | Every n ->
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= n then begin
        do_fsync t t.log_write;
        t.unsynced <- 0
      end

(* Append one frame at [log_bytes] and return its offset.  A write
   that does not put the whole frame in the file (a short write, or a
   [Unix.write] that raises, e.g. on ENOSPC) is cut back off: the file
   is truncated to the frame's start, [log_bytes] does not move, and
   the append raises [Append_failed], so the index never names an
   offset past a partial frame.  If the cut fails too, the file's tail
   is unknown and the log refuses every later append until it is
   reopened, whose recovery truncates the tail to the last valid
   frame. *)
let append t ~kind ~key ~value =
  if t.read_only then
    raise (Append_failed "log is read-only after a failed truncation; reopen it");
  Obs.Histogram.time h_append (fun () ->
      let b = frame ~kind ~key ~value in
      let off = t.log_bytes in
      let write b = write_all t.log_write b; Bytes.length b in
      (* Failpoints: bit-rot one byte of the frame, or tear the write
         short, before the bytes reach the file.  A corrupt frame is
         indexed as if the append succeeded — the damage is only
         discoverable by a reader, which is the safety property under
         test: the CRC check on every read must degrade it to a
         recompute, never serve it.  A torn write is a short write, cut
         back off like any other. *)
      let outcome =
        match
          if Fault.Failpoint.armed () then begin
            if Fault.Failpoint.fire "store.append.corrupt" then begin
              let salt = Fault.Failpoint.salt "store.append.corrupt" in
              let n = Bytes.length b in
              let pos = Fault.Rng.mix salt t.appends mod n in
              let mask = 1 + (Fault.Rng.mix salt (t.appends + 1) mod 255) in
              Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask land 0xff))
            end;
            if Fault.Failpoint.fire "store.append.torn" then
              write (Bytes.sub b 0 (max 1 (Bytes.length b / 2)))
            else write b
          end
          else write b
        with
        | n when n = Bytes.length b -> Ok ()
        | n -> Error (Printf.sprintf "short write (%d of %d bytes)" n (Bytes.length b))
        | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
      in
      match outcome with
      | Ok () ->
          t.log_bytes <- off + Bytes.length b;
          after_append t;
          off
      | Error why ->
          (match
             Unix.ftruncate t.log_write off;
             Unix.lseek t.log_write off Unix.SEEK_SET
           with
          | _ -> ()
          | exception Unix.Unix_error _ -> t.read_only <- true);
          raise (Append_failed ("store append failed: " ^ why)))

(* Every live binding whose frame still reads back. *)
let live_bindings t =
  Hashtbl.fold
    (fun key loc acc ->
      match read_value t ~key loc with
      | Some value -> (key, value) :: acc
      | None -> acc)
    t.index []

(* Rewrite the live set to a fresh snapshot (temp file + rename, synced
   before and after), then empty the log.  Runs with the lock held.  A
   binding whose frame no longer reads back is dropped, not re-framed. *)
let compact_locked t =
  let tmp = Filename.concat t.dir "snapshot.tmp" in
  let live = live_bindings t in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let relocated = Hashtbl.create (List.length live) in
  let pos = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun (key, value) ->
          let b = frame ~kind:'P' ~key ~value in
          write_all fd b;
          Hashtbl.replace relocated key { in_snapshot = true; off = !pos };
          pos := !pos + Bytes.length b)
        live;
      do_fsync t fd);
  Unix.rename tmp (snapshot_file t.dir);
  (* Make the rename itself durable. *)
  (match Unix.openfile t.dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd
  | exception Unix.Unix_error _ -> ());
  (match t.snap_read with Some fd -> Unix.close fd | None -> ());
  t.snap_read <- Some (Unix.openfile (snapshot_file t.dir) [ Unix.O_RDONLY ] 0o644);
  Unix.ftruncate t.log_write 0;
  ignore (Unix.lseek t.log_write 0 Unix.SEEK_SET);
  t.log_bytes <- 0;
  t.unsynced <- 0;
  t.snapshot_bytes <- !pos;
  Hashtbl.reset t.index;
  Hashtbl.iter (Hashtbl.replace t.index) relocated;
  t.compactions <- t.compactions + 1

let maybe_auto_compact t =
  if t.auto_compact_bytes > 0 && t.log_bytes >= t.auto_compact_bytes then
    compact_locked t

let put t key value =
  locked t (fun () ->
      alive t;
      let off = append t ~kind:'P' ~key ~value in
      Hashtbl.replace t.index key { in_snapshot = false; off };
      maybe_auto_compact t)

let remove t key =
  locked t (fun () ->
      alive t;
      if Hashtbl.mem t.index key then begin
        ignore (append t ~kind:'D' ~key ~value:"");
        Hashtbl.remove t.index key;
        maybe_auto_compact t
      end)

let iter t f =
  locked t (fun () ->
      alive t;
      (* Snapshot the bindings first: [f] must not observe the lock. *)
      live_bindings t)
  |> List.iter (fun (key, value) -> f key value)

let sync t =
  locked t (fun () ->
      alive t;
      do_fsync t t.log_write;
      t.unsynced <- 0)

let compact t =
  locked t (fun () ->
      alive t;
      compact_locked t)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try do_fsync t t.log_write with Unix.Unix_error _ -> ());
        (try Unix.close t.log_write with Unix.Unix_error _ -> ());
        (try Unix.close t.log_read with Unix.Unix_error _ -> ());
        match t.snap_read with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ()
      end)

let stats t =
  locked t (fun () ->
      List.sort compare
        [
          ("appends", t.appends);
          ("compactions", t.compactions);
          ("fsyncs", t.fsyncs);
          ("live_records", Hashtbl.length t.index);
          ("log_bytes", t.log_bytes);
          ("recovered_records", t.recovered);
          ("recovery_truncated_bytes", t.truncated_bytes);
          ("snapshot_bytes", t.snapshot_bytes);
        ])

let disk_bytes t = locked t (fun () -> t.snapshot_bytes + t.log_bytes)
