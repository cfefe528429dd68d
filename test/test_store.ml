(* The durable store: CRC framing, put/remove/overwrite semantics,
   snapshot + compaction, the fsync policy syntax, recovery across
   reopen, and — the property that matters — that a log truncated or
   corrupted at an arbitrary byte offset recovers exactly a prefix of
   the valid records, and that a store damaged while open never serves
   or re-seals a value that was not written: no crash, no wrong
   value. *)

module Log = Store.Log

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "defstore-%d-%d" (Unix.getpid ()) !counter)
    in
    (* Leftovers from a previous crashed run would corrupt the test. *)
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end;
    dir

let with_store ?fsync ?auto_compact_bytes dir f =
  let t = Log.open_ ?fsync ?auto_compact_bytes dir in
  Fun.protect ~finally:(fun () -> Log.close t) (fun () -> f t)

let stat t name =
  match List.assoc_opt name (Log.stats t) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let test_crc32 () =
  (* The standard check value for CRC-32/IEEE. *)
  Alcotest.(check int) "123456789" 0xCBF43926
    (Store.Crc32.digest_string "123456789");
  Alcotest.(check int) "empty" 0 (Store.Crc32.digest_string "");
  Alcotest.(check int) "sub = whole"
    (Store.Crc32.digest_string "456")
    (Store.Crc32.digest_sub "123456789" 3 3)

(* ---------- slicing-by-4 against a bit-at-a-time reference ---------- *)

(* CRC-32 one bit at a time, straight from the polynomial: shares no
   table and no word loop with the slicing-by-4 implementation. *)
let crc_reference s pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let agrees s pos len =
  let expect = crc_reference s pos len in
  Store.Crc32.digest_sub s pos len = expect
  && Store.Crc32.digest_bytes (Bytes.of_string s) pos len = expect
  && Store.Crc32.digest_sub_char s pos len '}'
     = crc_reference (String.sub s pos len ^ "}") 0 (len + 1)

let test_crc32_every_length () =
  Alcotest.(check int) "quick brown fox" 0x414FA339
    (Store.Crc32.digest_string "The quick brown fox jumps over the lazy dog");
  let rng = Random.State.make [| 25 |] in
  let s = String.init 80 (fun _ -> Char.chr (Random.State.int rng 256)) in
  (* Every length 0..67 at four offsets, so the word loop starts both
     aligned and not, and every tail length 0..3 is taken. *)
  for len = 0 to 67 do
    for pos = 0 to 3 do
      if not (agrees s pos len) then
        Alcotest.failf "crc disagrees at pos %d len %d" pos len
    done
  done;
  List.iter
    (fun (pos, len) ->
      match Store.Crc32.digest_sub s pos len with
      | _ -> Alcotest.failf "accepted slice %d+%d" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (79, 2); (81, 0) ]

let prop_crc32_reference =
  QCheck.Test.make ~name:"slicing-by-4 = bitwise reference" ~count:500
    ~long_factor:20
    QCheck.(
      triple (string_of_size (Gen.int_bound 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      agrees s 0 n && agrees s pos len)

let test_basic_ops () =
  let dir = fresh_dir () in
  with_store dir (fun t ->
      Alcotest.(check (option string)) "miss" None (Log.find t "a");
      Log.put t "a" "1";
      Log.put t "b" "2";
      Alcotest.(check (option string)) "a" (Some "1") (Log.find t "a");
      Alcotest.(check (option string)) "b" (Some "2") (Log.find t "b");
      Log.put t "a" "1'";
      Alcotest.(check (option string)) "overwrite" (Some "1'") (Log.find t "a");
      Log.remove t "b";
      Alcotest.(check (option string)) "removed" None (Log.find t "b");
      Alcotest.(check bool) "mem" true (Log.mem t "a");
      Alcotest.(check int) "length" 1 (Log.length t);
      let seen = ref [] in
      Log.iter t (fun k v -> seen := (k, v) :: !seen);
      Alcotest.(check (list (pair string string))) "iter" [ ("a", "1'") ] !seen)

let test_reopen_recovers () =
  let dir = fresh_dir () in
  with_store dir (fun t ->
      Log.put t "x" (String.make 1000 'x');
      Log.put t "y" "why";
      Log.remove t "x");
  with_store dir (fun t ->
      Alcotest.(check (option string)) "y survives" (Some "why")
        (Log.find t "y");
      Alcotest.(check (option string)) "x stays deleted" None (Log.find t "x");
      Alcotest.(check int) "one live key recovered" 1
        (stat t "recovered_records");
      Alcotest.(check int) "nothing truncated" 0
        (stat t "recovery_truncated_bytes"))

let test_compaction () =
  let dir = fresh_dir () in
  with_store dir (fun t ->
      for i = 0 to 99 do
        Log.put t "k" (string_of_int i)
      done;
      Log.put t "other" "o";
      Log.remove t "other";
      let before = Log.disk_bytes t in
      Log.compact t;
      let after = Log.disk_bytes t in
      Alcotest.(check bool) "compaction reclaims dead records" true
        (after < before);
      Alcotest.(check int) "log emptied" 0 (stat t "log_bytes");
      Alcotest.(check (option string)) "live key survives" (Some "99")
        (Log.find t "k");
      (* Appends after compaction land in the (new, empty) log. *)
      Log.put t "post" "p";
      Alcotest.(check (option string)) "post-compaction put" (Some "p")
        (Log.find t "post"));
  with_store dir (fun t ->
      Alcotest.(check (option string)) "snapshot key after reopen" (Some "99")
        (Log.find t "k");
      Alcotest.(check (option string)) "log key after reopen" (Some "p")
        (Log.find t "post"))

let test_auto_compaction () =
  let dir = fresh_dir () in
  with_store ~auto_compact_bytes:512 dir (fun t ->
      for i = 0 to 99 do
        Log.put t "k" (Printf.sprintf "%032d" i)
      done;
      Alcotest.(check bool) "auto-compaction ran" true
        (stat t "compactions" > 0);
      Alcotest.(check (option string)) "value intact" (Some (Printf.sprintf "%032d" 99))
        (Log.find t "k"))

let test_fsync_policy_syntax () =
  List.iter
    (fun (s, p) ->
      Alcotest.(check bool) s true (Log.fsync_policy_of_string s = Ok p);
      Alcotest.(check string) "round-trip" s (Log.fsync_policy_to_string p))
    [ ("never", Log.Never); ("always", Log.Always); ("every:7", Log.Every 7) ];
  List.iter
    (fun s ->
      match Log.fsync_policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "every"; "every:"; "every:0"; "every:x"; "sometimes" ]

(* ---------- recovery under corruption (QCheck) ---------- *)

(* Write [n] records with deterministic contents, then flip one byte (or
   truncate) at an arbitrary offset of log.bin.  Recovery must yield
   exactly a prefix of the records (later puts of the same key winning),
   and never a value that was not written.  When the bytes are damaged
   under a live store instead, reads and compaction run before any
   recovery does: whatever they serve, and whatever survives the
   reopen, must still be a value that was written. *)

let record_key i = Printf.sprintf "key-%d" (i mod 7)
let record_value i = Printf.sprintf "value-%d-%s" i (String.make (i mod 13) 'v')

let put_records t n =
  for i = 0 to n - 1 do
    Log.put t (record_key i) (record_value i)
  done

let write_records dir n = with_store ~fsync:Log.Never dir (fun t -> put_records t n)

(* The live map after the first [p] records. *)
let expected_prefix p =
  let tbl = Hashtbl.create 7 in
  for i = 0 to p - 1 do
    Hashtbl.replace tbl (record_key i) (record_value i)
  done;
  tbl

let recovered_is_valid_prefix ~n t =
  (* Find the longest prefix consistent with what the store serves. *)
  let serves p =
    let want = expected_prefix p in
    Log.length t = Hashtbl.length want
    && Hashtbl.fold
         (fun k v ok -> ok && Log.find t k = Some v)
         want true
  in
  let rec scan p = p >= 0 && (serves p || scan (p - 1)) in
  scan n

(* Every value [t] serves, by [find] or [iter], was put under its key
   by one of the first [n] records. *)
let serves_only_written ~n t =
  let written k v =
    List.exists
      (fun i -> record_key i = k && record_value i = v)
      (List.init n Fun.id)
  in
  let found_ok =
    List.for_all
      (fun i ->
        match Log.find t (record_key i) with
        | None -> true
        | Some v -> written (record_key i) v)
      (List.init (min n 7) Fun.id)
  in
  let iter_ok = ref true in
  Log.iter t (fun k v -> if not (written k v) then iter_ok := false);
  found_ok && !iter_ok

(* What happens between the damage and the reopen. *)
type live_step =
  | Closed  (** the store is closed first: recovery is the first reader *)
  | Find  (** live [find]s of every key and an [iter] *)
  | Compact  (** a live [compact] *)
  | Find_then_compact

let live_step_name = function
  | Closed -> "closed"
  | Find -> "find"
  | Compact -> "compact"
  | Find_then_compact -> "find+compact"

let corruption_case =
  (* (record count, corruption offset seed, flip-vs-truncate, live step) *)
  QCheck.quad (QCheck.int_range 1 40) (QCheck.int_bound 1_000_000) QCheck.bool
    (QCheck.make
       ~print:live_step_name
       (QCheck.Gen.oneofl [ Closed; Find; Compact; Find_then_compact ]))

let damage_log dir ~off_seed ~truncate =
  let log = Filename.concat dir "log.bin" in
  let size = (Unix.stat log).Unix.st_size in
  QCheck.assume (size > 0);
  let off = off_seed mod size in
  if truncate then Unix.truncate log off
  else
    let fd = Unix.openfile log [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let b = Bytes.create 1 in
        ignore (Unix.read fd b 0 1);
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1))

let test_corrupted_log_recovers_prefix =
  QCheck.Test.make ~name:"corrupted log recovers a valid prefix" ~count:600
    corruption_case (fun (n, off_seed, truncate, step) ->
      let dir = fresh_dir () in
      match step with
      | Closed ->
          write_records dir n;
          damage_log dir ~off_seed ~truncate;
          with_store dir (fun t -> recovered_is_valid_prefix ~n t)
      | Find | Compact | Find_then_compact ->
          let live_ok =
            with_store ~fsync:Log.Never dir (fun t ->
                put_records t n;
                damage_log dir ~off_seed ~truncate;
                let found_ok = step = Compact || serves_only_written ~n t in
                if step <> Find then Log.compact t;
                found_ok && serves_only_written ~n t)
          in
          live_ok && with_store dir (serves_only_written ~n))

let test_double_corruption_reopen =
  (* After recovery truncates, a second open must be clean: recovery is
     idempotent and the truncated log reloads without further loss. *)
  QCheck.Test.make ~name:"recovery is idempotent" ~count:50
    (QCheck.pair (QCheck.int_range 1 30) QCheck.small_nat)
    (fun (n, off_seed) ->
      let dir = fresh_dir () in
      write_records dir n;
      let log = Filename.concat dir "log.bin" in
      let size = (Unix.stat log).Unix.st_size in
      QCheck.assume (size > 0);
      Unix.truncate log (off_seed mod size);
      let first =
        with_store dir (fun t ->
            (Log.length t, List.sort compare (Log.stats t) |> List.length))
      in
      ignore first;
      let bindings t =
        let l = ref [] in
        Log.iter t (fun k v -> l := (k, v) :: !l);
        List.sort compare !l
      in
      let b1 = with_store dir bindings in
      let b2 = with_store dir (fun t ->
          let b = bindings t in
          (b, stat t "recovery_truncated_bytes"))
      in
      b1 = fst b2 && snd b2 = 0)

let () =
  Alcotest.run "store"
    [
      ( "log",
        [
          ("crc32 check values", `Quick, test_crc32);
          ("basic ops", `Quick, test_basic_ops);
          ("reopen recovers", `Quick, test_reopen_recovers);
          ("compaction", `Quick, test_compaction);
          ("auto compaction", `Quick, test_auto_compaction);
          ("fsync policy syntax", `Quick, test_fsync_policy_syntax);
        ] );
      ( "recovery",
        List.map QCheck_alcotest.to_alcotest
          [ test_corrupted_log_recovers_prefix; test_double_corruption_reopen ]
      );
      ( "crc32",
        [
          ("every length, unaligned", `Quick, test_crc32_every_length);
          QCheck_alcotest.to_alcotest prop_crc32_reference;
        ] );
    ]
