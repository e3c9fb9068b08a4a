(* Host and run metadata stamped into every result record. *)

type host = {
  cores : int;  (** online processors listed in /proc/cpuinfo *)
  recommended_domains : int;
  ocaml : string;
  ocamlrunparam : string;
  git_rev : string;  (** "none" outside a git checkout *)
  git_dirty : bool;
}

let cores () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n = 0 then Domain.recommended_domain_count () else !n

(* First line of a git command's output, or [None] if git is missing or
   fails. Only consulted when the working directory is a git checkout. *)
let git args =
  match Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let out = try Some (input_line ic) with End_of_file -> Some "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> out
    | _ -> None)

let host () =
  let git_rev, git_dirty =
    if Sys.file_exists ".git" then
      match git [ "rev-parse"; "HEAD" ] with
      | Some rev ->
        let dirty =
          match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
          | Some "" | None -> false
          | Some _ -> true
        in
        (rev, dirty)
      | None -> ("none", false)
    else ("none", false)
  in
  {
    cores = cores ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    ocamlrunparam = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"";
    git_rev;
    git_dirty;
  }

let to_json h =
  Json.Obj
    [
      ("cores", Json.Num (float h.cores));
      ("recommended_domains", Json.Num (float h.recommended_domains));
      ("ocaml", Json.Str h.ocaml);
      ("ocamlrunparam", Json.Str h.ocamlrunparam);
      ("git_rev", Json.Str h.git_rev);
      ("git_dirty", Json.Bool h.git_dirty);
    ]

(* A fixed piece of work shaped like the checker's inner loop (string
   keys interned in a hash table, so hashing, allocation and GC), timed
   as the median of three. It does not touch the checker, so when two
   result sets differ here the host's speed moved, not the code's. *)
let host_probe_s () =
  let once () =
    let t = Unix.gettimeofday () in
    let tbl = Hashtbl.create 16 in
    for i = 1 to 100_000 do
      Hashtbl.replace tbl (string_of_int (i * 7919)) i
    done;
    ignore (Sys.opaque_identity (Hashtbl.length tbl));
    Unix.gettimeofday () -. t
  in
  Stats.median (List.init 3 (fun _ -> once ()))

(* Peak resident set of this process in MB (VmHWM), falling back to the
   OCaml heap high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      let r = ref None in
      (try
         while !r = None do
           let l = input_line ic in
           if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
             Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
               (fun kb -> r := Some (float kb /. 1024.))
         done
       with End_of_file | Scanf.Scan_failure _ -> ());
      close_in ic;
      !r
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
