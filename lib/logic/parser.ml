exception Error of string * int

type token =
  | IDENT of string
  | INT of int
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | HASH
  | BANG
  | AMP
  | BAR
  | ARROW
  | IFF
  | EQ
  | EQEQ
  | LE
  | GE
  | LT
  | GT
  | NE
  | PLUS
  | MINUS
  | STAR
  | EOF

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '_'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let push t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do
        incr j
      done;
      (match int_of_string_opt (String.sub src !i (!j - !i)) with
      | Some v -> push (INT v) pos
      | None -> raise (Error ("integer literal out of range", pos)));
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      push (IDENT (String.sub src !i (!j - !i))) pos;
      i := !j
    end
    else begin
      let two =
        if !i + 1 < n then String.sub src !i 2 else ""
      in
      let three =
        if !i + 2 < n then String.sub src !i 3 else ""
      in
      if three = "<->" then begin
        push IFF pos;
        i := !i + 3
      end
      else if two = "->" then begin
        push ARROW pos;
        i := !i + 2
      end
      else if two = "==" then begin
        push EQEQ pos;
        i := !i + 2
      end
      else if two = "<=" then begin
        push LE pos;
        i := !i + 2
      end
      else if two = ">=" then begin
        push GE pos;
        i := !i + 2
      end
      else if two = "!=" then begin
        push NE pos;
        i := !i + 2
      end
      else begin
        (match c with
        | '(' -> push LPAREN pos
        | ')' -> push RPAREN pos
        | ',' -> push COMMA pos
        | '.' -> push DOT pos
        | '#' -> push HASH pos
        | '!' -> push BANG pos
        | '&' -> push AMP pos
        | '|' -> push BAR pos
        | '=' -> push EQ pos
        | '<' -> push LT pos
        | '>' -> push GT pos
        | '+' -> push PLUS pos
        | '-' -> push MINUS pos
        | '*' -> push STAR pos
        | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, pos)));
        incr i
      end
    end
  done;
  push EOF n;
  Array.of_list (List.rev !toks)

type state = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let peek_pos st = snd st.toks.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else EOF

let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else raise (Error ("expected " ^ what, peek_pos st))

let fail st msg = raise (Error (msg, peek_pos st))

let ident st what =
  match peek st with
  | IDENT s ->
      advance st;
      if s.[0] = '_' then fail st "identifiers starting with '_' are reserved"
      else s
  | _ -> fail st ("expected " ^ what)

let keywords = [ "exists"; "forall"; "true"; "false"; "dist" ]

let variable st =
  let s = ident st "variable" in
  if List.mem s keywords then fail st ("keyword " ^ s ^ " used as variable");
  s

(* ------------------------------------------------------------------ *)

let rec parse_formula preds st =
  match peek st with
  | IDENT "exists" ->
      advance st;
      let vs = parse_vars_until_dot st in
      Ast.exists vs (parse_formula preds st)
  | IDENT "forall" ->
      advance st;
      let vs = parse_vars_until_dot st in
      Ast.forall vs (parse_formula preds st)
  | _ -> parse_iff preds st

and parse_vars_until_dot st =
  let rec go acc =
    match peek st with
    | DOT ->
        advance st;
        List.rev acc
    | IDENT _ -> go (variable st :: acc)
    | _ -> fail st "expected variable or '.'"
  in
  let v = variable st in
  go [ v ]

and parse_iff preds st =
  let lhs = parse_imp preds st in
  if peek st = IFF then begin
    advance st;
    let rhs = parse_iff preds st in
    Ast.iff lhs rhs
  end
  else lhs

and parse_imp preds st =
  let lhs = parse_or preds st in
  if peek st = ARROW then begin
    advance st;
    let rhs = parse_imp preds st in
    Ast.implies lhs rhs
  end
  else lhs

and parse_or preds st =
  let lhs = parse_and preds st in
  let rec go acc =
    if peek st = BAR then begin
      advance st;
      let rhs = parse_and preds st in
      go (Ast.Or (acc, rhs))
    end
    else acc
  in
  go lhs

and parse_and preds st =
  let lhs = parse_unary preds st in
  let rec go acc =
    if peek st = AMP then begin
      advance st;
      let rhs = parse_unary preds st in
      go (Ast.And (acc, rhs))
    end
    else acc
  in
  go lhs

and parse_unary preds st =
  match peek st with
  | BANG ->
      advance st;
      Ast.Neg (parse_unary preds st)
  | IDENT ("exists" | "forall") -> parse_formula preds st
  | _ -> parse_atom preds st

and parse_atom preds st =
  match peek st with
  | IDENT "true" ->
      advance st;
      Ast.True
  | IDENT "false" ->
      advance st;
      Ast.False
  | IDENT "dist" when peek2 st = LPAREN ->
      advance st;
      expect st LPAREN "'('";
      let x = variable st in
      expect st COMMA "','";
      let y = variable st in
      expect st RPAREN "')'";
      expect st LE "'<='";
      let d = parse_int st in
      Ast.Dist (x, y, d)
  | IDENT name when peek2 st = LPAREN ->
      advance st;
      advance st;
      if Pred.mem preds name then begin
        let ts = parse_term_list preds st in
        expect st RPAREN "')'";
        Ast.Pred (name, ts)
      end
      else begin
        let vs = parse_var_list st in
        expect st RPAREN "')'";
        Ast.Rel (name, Array.of_list vs)
      end
  | IDENT _ when peek2 st = EQ ->
      let x = variable st in
      advance st;
      let y = variable st in
      Ast.Eq (x, y)
  | LPAREN -> begin
      (* backtracking: '(' may open a formula or the term of a comparison *)
      let save = st.pos in
      try
        advance st;
        let f = parse_formula preds st in
        expect st RPAREN "')'";
        f
      with Error _ as e -> (
        st.pos <- save;
        try parse_comparison preds st
        with Error _ -> raise e)
    end
  | INT _ | HASH | MINUS -> parse_comparison preds st
  | _ -> fail st "expected a formula"

and parse_comparison preds st =
  let lhs = parse_term_expr preds st in
  let mk name rhs = Ast.Pred (name, [ lhs; rhs ]) in
  match peek st with
  | EQEQ ->
      advance st;
      mk "eq" (parse_term_expr preds st)
  | LE ->
      advance st;
      mk "le" (parse_term_expr preds st)
  | GE ->
      advance st;
      let rhs = parse_term_expr preds st in
      if rhs = Ast.Int 1 then Ast.Pred ("ge1", [ lhs ]) else mk "ge" rhs
  | LT ->
      advance st;
      mk "lt" (parse_term_expr preds st)
  | GT ->
      advance st;
      mk "gt" (parse_term_expr preds st)
  | NE ->
      advance st;
      mk "ne" (parse_term_expr preds st)
  | _ -> fail st "expected a comparison operator"

and parse_int st =
  match peek st with
  | INT i ->
      advance st;
      i
  | MINUS ->
      advance st;
      let i = parse_int st in
      -i
  | _ -> fail st "expected an integer"

and parse_var_list st =
  if peek st = RPAREN then []
  else begin
    let rec go acc =
      if peek st = COMMA then begin
        advance st;
        go (variable st :: acc)
      end
      else List.rev acc
    in
    go [ variable st ]
  end

and parse_term_list preds st =
  if peek st = RPAREN then []
  else begin
    let rec go acc =
      if peek st = COMMA then begin
        advance st;
        go (parse_term_expr preds st :: acc)
      end
      else List.rev acc
    in
    go [ parse_term_expr preds st ]
  end

and parse_term_expr preds st =
  let lhs = parse_term_factor preds st in
  let rec go acc =
    match peek st with
    | PLUS ->
        advance st;
        go (Ast.Add (acc, parse_term_factor preds st))
    | MINUS ->
        advance st;
        go (Ast.sub acc (parse_term_factor preds st))
    | _ -> acc
  in
  go lhs

and parse_term_factor preds st =
  let lhs = parse_term_atom preds st in
  let rec go acc =
    if peek st = STAR then begin
      advance st;
      go (Ast.Mul (acc, parse_term_atom preds st))
    end
    else acc
  in
  go lhs

and parse_term_atom preds st =
  match peek st with
  | INT i ->
      advance st;
      Ast.Int i
  | MINUS ->
      advance st;
      Ast.Int (-parse_int st)
  | LPAREN ->
      advance st;
      let t = parse_term_expr preds st in
      expect st RPAREN "')'";
      t
  | HASH ->
      advance st;
      expect st LPAREN "'('";
      let first = st.pos in
      let vs = parse_var_list st in
      (* a repeated bound variable is an error at its second occurrence *)
      let seen = ref [] in
      for i = first to st.pos - 1 do
        match st.toks.(i) with
        | IDENT x, p ->
            if List.mem x !seen then
              raise (Error ("repeated bound variable " ^ x, p));
            seen := x :: !seen
        | _ -> ()
      done;
      expect st RPAREN "')'";
      expect st DOT "'.'";
      let body = parse_unary preds st in
      Ast.count vs body
  | _ -> fail st "expected a counting term"

(* ------------------------------------------------------------------ *)

let run parse preds src =
  let st = { toks = tokenize src; pos = 0 } in
  let v = parse preds st in
  if peek st <> EOF then raise (Error ("trailing input", peek_pos st));
  v

let formula preds src = run parse_formula preds src
let term preds src = run parse_term_expr preds src

let wrap f preds src =
  match f preds src with
  | v -> Ok v
  | exception Error (msg, pos) ->
      Result.Error (Printf.sprintf "parse error at %d: %s" pos msg)

let formula_result preds src = wrap formula preds src
let term_result preds src = wrap term preds src
