(* Without flambda, Stdlib's polymorphic [min], [max] and [compare], and
   the [List] functions built on polymorphic equality, are calls into the
   C runtime: [Stdlib.min] on two ints costs several times [Int.min]. The
   modules on the simulation's and the explorer's hot paths compare ints
   with [Int.min]/[Int.max]/[Int.compare] and test membership with an int
   loop instead. This scans their sources and fails on any use of the
   polymorphic ones outside comments and string literals. *)

let banned = [ "min"; "max"; "compare"; "List.mem"; "List.assoc"; "List.assoc_opt"; "List.mem_assoc" ]

(* Relative to the repository root: the parent of the working
   directory under [dune runtest], the working directory when the test
   binary is run from the root. *)
let root = if Sys.file_exists "../lib/runtime" then ".." else "."
let under = List.map (Filename.concat root)
let dirs = under [ "lib/runtime"; "lib/core"; "lib/cm"; "lib/mvcc" ]
let files = under [ "lib/litmus/explorer.ml"; "lib/store/kv.ml"; "lib/store/engine.ml"; "lib/obs/hist.ml" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [src] with comments, string literals and character literals blanked
   to spaces (newlines kept, so line numbers survive). Comments nest and
   may hold string literals, as in OCaml's lexer. *)
let strip src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  (* a string literal opening at [i]; returns the index after it *)
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' ->
          blank i;
          if i + 1 < n then blank (i + 1);
          string_end (i + 2)
      | '"' ->
          blank i;
          i + 1
      | _ ->
          blank i;
          string_end (i + 1)
  in
  (* a quoted string [{id|...|id}] opening at [i] *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let k = ref (!j + 1) in
      let len = String.length close in
      while !k < n && not (!k + len <= n && String.sub src !k len = close) do
        incr k
      done;
      let stop = Int.min n (!k + len) in
      for p = i to stop - 1 do
        blank p
      done;
      Some stop
    end
    else None
  in
  (* a character literal at [i]: ['c'] or ['\...'] *)
  let char_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && src.[i + 1] = '\\' then begin
      let j = ref (i + 2) in
      while !j < n && !j < i + 6 && src.[!j] <> '\'' do
        incr j
      done;
      if !j < n && src.[!j] = '\'' then Some (!j + 1) else None
    end
    else None
  in
  let rec code i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          blank i;
          blank (i + 1);
          comment 1 (i + 2)
      | '"' ->
          blank i;
          code (string_end (i + 1))
      | '{' -> (
          match quoted_end i with Some j -> code j | None -> code (i + 1))
      | '\'' when i = 0 || not (is_ident src.[i - 1]) -> (
          match char_end i with
          | Some j ->
              for p = i to j - 1 do
                blank p
              done;
              code j
          | None -> code (i + 1))
      | _ -> code (i + 1)
  and comment depth i =
    if i >= n then ()
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2)
    end
    else if src.[i] = '*' && i + 1 < n && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      comment depth (string_end (i + 1))
    end
    else begin
      blank i;
      comment depth (i + 1)
    end
  in
  code 0;
  Bytes.to_string b

(* Every banned value path in [src], with its line: a path is a dotted
   run of identifiers (["List.mem"], ["Int.min"], ["t.max"]), a leading
   [Stdlib.] dropped. Labels ([~max], [?min]) are not values. *)
let uses src =
  let code = strip src in
  let n = String.length code in
  let found = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = code.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if is_ident c && (!i = 0 || not (is_ident code.[!i - 1])) then begin
      let start = !i in
      let stop = ref start in
      let continue = ref true in
      while !continue do
        while !stop < n && is_ident code.[!stop] do
          incr stop
        done;
        if !stop + 1 < n && code.[!stop] = '.' && is_ident code.[!stop + 1] then incr stop
        else continue := false
      done;
      let path = String.sub code start (!stop - start) in
      let path =
        if String.starts_with ~prefix:"Stdlib." path then
          String.sub path 7 (String.length path - 7)
        else path
      in
      let labelled = start > 0 && (code.[start - 1] = '~' || code.[start - 1] = '?') in
      let field = start > 0 && code.[start - 1] = '.' in
      if (not labelled) && (not field) && List.exists (String.equal path) banned then
        found := (!line, path) :: !found;
      i := !stop
    end
    else incr i
  done;
  List.rev !found

let sources () =
  List.concat_map
    (fun d ->
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.sort String.compare
      |> List.map (Filename.concat d))
    dirs
  @ files

let no_polymorphic_compare () =
  let srcs = sources () in
  Alcotest.(check bool) "the scan sees the hot-path modules" true (List.length srcs > 20);
  let offences =
    List.concat_map
      (fun f -> List.map (fun (l, p) -> Printf.sprintf "%s:%d: %s" f l p) (uses (read_file f)))
      srcs
  in
  Alcotest.(check (list string)) "polymorphic compares on hot paths" [] offences

(* The scanner itself: what it must flag and what it must let through. *)
let scanner_cases () =
  let flagged src = List.map snd (uses src) in
  Alcotest.(check (list string))
    "flags"
    [ "max"; "min"; "compare"; "List.mem"; "List.assoc_opt"; "List.mem_assoc"; "min" ]
    (flagged
       "let a = max 1 2\n\
        let b = Stdlib.min 1 2\n\
        let c = List.sort compare l\n\
        let d = List.mem 1 l && List.assoc_opt 1 m <> None\n\
        let e = List.mem_assoc 1 m\n\
        let f = (min)");
  Alcotest.(check (list string))
    "lets through" []
    (flagged
       "(* max (min 1 2) (* nested: compare *) List.mem *)\n\
        let a = Int.max 1 2 and b = Int.compare x y and c = List.memq 1 l\n\
        let d = t.max_retries + r.min and e = f ~max:3 ?min\n\
        let s = \"min max compare (* List.mem\" and q = {|max|} and ch = '\"'\n\
        let a' = x_max and t = Atomic.compare_and_set")

(* Every [val] a [lib/**/*.mli] exports must have a user outside its
   module: a whole-word use, outside comments and strings, in a
   [.ml]/[.mli] of [lib], [bin], [bench] or [test] other than the
   module's own two files. A value only its own module uses belongs in
   the [.ml] alone; one nobody uses belongs nowhere. A field or local of
   the same name counts as a use, so the check can miss a dead value but
   never flags a live one. *)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if f.[0] = '.' || f.[0] = '_' then []
         else if Sys.is_directory path then files_under path
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ path ]
         else [])

(* The identifiers of [src] outside comments and strings, in reverse
   order, with each ["("] as a token of its own. *)
let words src =
  let code = strip src in
  let n = String.length code in
  let found = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident code.[!i] then begin
      let start = !i in
      while !i < n && is_ident code.[!i] do
        incr i
      done;
      found := String.sub code start (!i - start) :: !found
    end
    else begin
      if code.[!i] = '(' then found := "(" :: !found;
      incr i
    end
  done;
  !found

(* The [val] names an interface declares; an operator ([val ( + )]) is
   skipped. *)
let exported src =
  let rec go = function
    | "val" :: "(" :: rest -> go rest
    | "val" :: name :: rest -> name :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (List.rev (words src))

(* The export scanner itself: the names it must find and what it must
   skip. *)
let export_scanner_cases () =
  Alcotest.(check (list string))
    "exported names" [ "run"; "a'"; "pp_json"; "x_1" ]
    (exported
       "val run : unit -> unit\n\
        (** [val hidden] in a doc comment *)\n\
        val ( + ) : t -> t -> t\n\
        val a' : int\n\
        (* val commented : int *)\n\
        val pp_json :\n  Format.formatter -> t -> unit\n\
        val x_1 : string (** \"val quoted\" *)")

let unused_exports () =
  let files = List.concat_map (fun d -> files_under (Filename.concat root d)) [ "lib"; "bin"; "bench"; "test" ] in
  (* word -> the module (path without extension) of each file using it *)
  let users = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      List.iter
        (fun w -> Hashtbl.add users w (Filename.remove_extension f))
        (List.sort_uniq String.compare (words (read_file f))))
    files;
  let interfaces =
    List.filter
      (fun f -> Filename.check_suffix f ".mli" && String.starts_with ~prefix:(Filename.concat root "lib") f)
      files
  in
  Alcotest.(check bool) "the scan sees the interfaces" true (List.length interfaces > 60);
  let offences =
    List.concat_map
      (fun mli ->
        let own = Filename.chop_suffix mli ".mli" in
        exported (read_file mli)
        |> List.filter (fun v -> List.for_all (String.equal own) (Hashtbl.find_all users v))
        |> List.map (fun v -> Printf.sprintf "%s: %s" mli v))
      interfaces
  in
  Alcotest.(check (list string)) "exported values without a user outside their module" [] offences

(* Every optional parameter of an exported [val] must be passed by name
   ([~l] or [?l]) in a file of [lib], [bin], [bench] or [test] outside
   the module that declares it, comments and strings blanked. One that
   nobody passes is a constant with extra syntax: it belongs in the
   [.ml] as a constant. A same-named label elsewhere counts as a pass,
   so the check can miss an unused parameter but never flags a used
   one. *)

(* The labels of [src] outside comments and strings, each with the
   character before it: ['~'] or ['?']; the identifiers with ['v']; and
   a [':'] right after a label with [':']. *)
let label_tokens src =
  let code = strip src in
  let n = String.length code in
  let found = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident code.[!i] then begin
      let start = !i in
      while !i < n && is_ident code.[!i] do
        incr i
      done;
      let w = String.sub code start (!i - start) in
      let kind =
        if start > 0 && (code.[start - 1] = '~' || code.[start - 1] = '?') then code.[start - 1]
        else 'v'
      in
      found := (kind, w) :: !found;
      if kind = '?' && !i < n && code.[!i] = ':' then found := (':', w) :: !found
    end
    else incr i
  done;
  List.rev !found

(* The [(val, label)] pairs of the optional parameters ([?label:]) an
   interface declares: from a [val] to the next signature item. *)
let optional_params src =
  let enders = [ "type"; "module"; "exception"; "external"; "class"; "end"; "include"; "open" ] in
  let rec go current = function
    | ('v', "val") :: ('v', name) :: rest -> go (Some name) rest
    | ('v', w) :: rest when List.exists (String.equal w) enders -> go None rest
    | ('?', l) :: (':', _) :: rest -> (
        match current with Some v -> (v, l) :: go current rest | None -> go current rest)
    | _ :: rest -> go current rest
    | [] -> []
  in
  go None (label_tokens src)

(* The scanners themselves: the parameters and passes they must find. *)
let optional_scanner_cases () =
  Alcotest.(check (list (pair string string)))
    "declared optionals"
    [ ("run", "seed"); ("run", "fuel"); ("pp", "width") ]
    (optional_params
       "val run : ?seed:int -> ?fuel:int -> cm:int -> unit\n\
        (** [?hidden:int] in a doc comment *)\n\
        type t = { f : ?inner:int -> unit }\n\
        val pp : ?width:int -> Format.formatter -> t -> unit");
  Alcotest.(check (list string))
    "passed labels" [ "seed"; "fuel"; "max" ]
    (List.filter_map
       (fun (k, w) -> if k = '~' || k = '?' then Some w else None)
       (label_tokens "let _ = run ~seed:1 ?fuel (* ~hidden *) \"~quoted\" ~max"))

let unpassed_optionals () =
  let files = List.concat_map (fun d -> files_under (Filename.concat root d)) [ "lib"; "bin"; "bench"; "test" ] in
  (* label -> the module of each file passing it *)
  let passers = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      List.iter
        (fun (k, w) ->
          if k = '~' || k = '?' then Hashtbl.add passers w (Filename.remove_extension f))
        (List.sort_uniq compare (label_tokens (read_file f))))
    files;
  let interfaces =
    List.filter
      (fun f -> Filename.check_suffix f ".mli" && String.starts_with ~prefix:(Filename.concat root "lib") f)
      files
  in
  let offences =
    List.concat_map
      (fun mli ->
        let own = Filename.chop_suffix mli ".mli" in
        optional_params (read_file mli)
        |> List.filter (fun (_, l) -> List.for_all (String.equal own) (Hashtbl.find_all passers l))
        |> List.map (fun (v, l) -> Printf.sprintf "%s: %s ?%s" mli v l))
      interfaces
  in
  Alcotest.(check (list string)) "optional parameters no caller outside their module passes" [] offences

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "no polymorphic compare on hot paths" `Quick
          no_polymorphic_compare;
        Alcotest.test_case "scanner flags and skips" `Quick scanner_cases;
        Alcotest.test_case "every exported value has a user outside its module" `Quick
          unused_exports;
        Alcotest.test_case "export scanner finds vals and skips the rest" `Quick
          export_scanner_cases;
        Alcotest.test_case "every optional parameter is passed outside its module" `Quick
          unpassed_optionals;
        Alcotest.test_case "optional-parameter scanner" `Quick optional_scanner_cases;
      ] );
  ]
