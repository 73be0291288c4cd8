(* Prints a C header defining [POLYMG_EMITTER_DIGEST]: the MD5 of the
   files named on the command line, read in that order.  The build runs
   it over the source that prints a native kernel's C, so the kernel
   cache key moves whenever it changes. *)
let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let d = Digest.string (String.concat "" (List.map Digest.file files)) in
  Printf.printf "#define POLYMG_EMITTER_DIGEST \"%s\"\n" (Digest.to_hex d)
