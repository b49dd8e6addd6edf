(** Package loader for multi-package MiniGo trees.

    Layout convention, mirroring a Go module rooted at [DIR]:
    - source files directly in [DIR] form package [main];
    - every (non-hidden) subdirectory holding source files is one
      package, its import path being the directory's path relative to
      the root and its package name the path's base component.

    A package may span several files; all must carry the same [package]
    clause, and their imports are merged. *)

open Minigo

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type package = {
  pkg_name : string;  (** package name (= import-path base) *)
  pkg_path : string;  (** import path, relative to the build root *)
  pkg_dir : string;  (** directory on disk *)
  pkg_files : (string * string) list;  (** file name → source, sorted *)
  pkg_file : Ast.file;  (** all files merged into one *)
  pkg_deps : string list;  (** imported package names, sorted, deduped *)
}

let is_source f =
  Filename.check_suffix f ".go" || Filename.check_suffix f ".minigo"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let list_dir dir = Sys.readdir dir |> Array.to_list |> List.sort compare

(* _build-style and hidden directories (including the cache) are not
   packages. *)
let skip_dir name =
  String.length name = 0 || name.[0] = '.' || name.[0] = '_'

let parse_one ~path source : Ast.file =
  try Parser.parse_file source with
  | Lexer.Error (m, pos) ->
    fail "%s:%s: lex error: %s" path (Token.string_of_pos pos) m
  | Parser.Error (m, pos) ->
    fail "%s:%s: parse error: %s" path (Token.string_of_pos pos) m

(* Merge the files of one package: same package clause everywhere,
   imports unioned (one local alias cannot name two different paths),
   declarations concatenated in file order. *)
let merge ~what (files : (string * Ast.file) list) : Ast.file =
  match files with
  | [] -> fail "package %s has no source files" what
  | (first_name, first) :: _ ->
    let package = first.Ast.file_package in
    List.iter
      (fun (name, f) ->
        if f.Ast.file_package <> package then
          fail "%s: package %s conflicts with %s in %s" name
            f.Ast.file_package package first_name)
      files;
    let imports =
      List.fold_left
        (fun acc (name, f) ->
          List.fold_left
            (fun acc (imp : Ast.import_decl) ->
              match
                List.find_opt
                  (fun (i : Ast.import_decl) ->
                    i.Ast.imp_alias = imp.Ast.imp_alias)
                  acc
              with
              | Some prev when prev.Ast.imp_path <> imp.Ast.imp_path ->
                fail "%s: import alias %s refers to both %S and %S" name
                  imp.Ast.imp_alias prev.Ast.imp_path imp.Ast.imp_path
              | Some _ -> acc
              | None -> acc @ [ imp ])
            acc f.Ast.file_imports)
        [] files
    in
    {
      Ast.file_package = package;
      file_imports = imports;
      file_decls = List.concat_map (fun (_, f) -> f.Ast.file_decls) files;
    }

let load_package ~root ~rel_path : package option =
  let dir = if rel_path = "" then root else Filename.concat root rel_path in
  let sources = List.filter is_source (list_dir dir) in
  if sources = [] then None
  else begin
    let files =
      List.map (fun f -> (f, read_file (Filename.concat dir f))) sources
    in
    let parsed =
      List.map
        (fun (f, src) -> (f, parse_one ~path:(Filename.concat dir f) src))
        files
    in
    let expected =
      if rel_path = "" then "main" else Ast.import_base rel_path
    in
    let merged = merge ~what:(if rel_path = "" then "main" else rel_path)
        parsed in
    if merged.Ast.file_package <> expected then
      fail "%s: found package %s, expected package %s"
        (if rel_path = "" then root else rel_path)
        merged.Ast.file_package expected;
    let deps =
      List.sort_uniq compare
        (List.map
           (fun (i : Ast.import_decl) -> Ast.import_base i.Ast.imp_path)
           merged.Ast.file_imports)
    in
    Some
      {
        pkg_name = merged.Ast.file_package;
        pkg_path = rel_path;
        pkg_dir = dir;
        pkg_files = files;
        pkg_file = merged;
        pkg_deps = deps;
      }
  end

(** Load every package of the tree rooted at [root].  The result always
    contains package [main]; imports are checked to resolve to loaded
    packages. *)
let load (root : string) : package list =
  if not (Sys.file_exists root && Sys.is_directory root) then
    fail "%s is not a directory" root;
  (* root files = package main; each subdirectory tree = one package per
     directory that holds sources *)
  let rec subdirs rel acc =
    let dir = if rel = "" then root else Filename.concat root rel in
    List.fold_left
      (fun acc entry ->
        let child_rel =
          if rel = "" then entry else Filename.concat rel entry
        in
        if
          (not (skip_dir entry))
          && Sys.is_directory (Filename.concat root child_rel)
        then subdirs child_rel (child_rel :: acc)
        else acc)
      acc (list_dir dir)
  in
  let rels = "" :: List.rev (subdirs "" []) in
  let pkgs = List.filter_map (fun rel -> load_package ~root ~rel_path:rel) rels in
  if not (List.exists (fun p -> p.pkg_name = "main") pkgs) then
    fail "%s: no main package (no source files at the root)" root;
  (* Package names must be unique: they key the unit store and the
     qualified namespace. *)
  List.iter
    (fun p ->
      match
        List.find_opt
          (fun q -> q.pkg_name = p.pkg_name && q.pkg_path < p.pkg_path)
          pkgs
      with
      | Some q ->
        fail "duplicate package name %s (%s and %s)" p.pkg_name
          (if q.pkg_path = "" then "." else q.pkg_path)
          p.pkg_path
      | None -> ())
    pkgs;
  (* Imports must resolve to loaded packages by exact path. *)
  List.iter
    (fun p ->
      List.iter
        (fun (i : Ast.import_decl) ->
          if
            not
              (List.exists (fun q -> q.pkg_path = i.Ast.imp_path) pkgs)
          then
            fail "package %s imports %S, which is not in the build tree"
              p.pkg_name i.Ast.imp_path)
        p.pkg_file.Ast.file_imports)
    pkgs;
  pkgs
