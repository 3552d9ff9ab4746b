open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }

type holding = Not_holding | Lent of { stamp : int }

type state = {
  last_stamp : int;  (** Hop count when the rotation last visited us. *)
  holding : holding;
  traps : Proto_util.Traps.t;  (** Trapped requesters, FIFO. *)
  searching : bool;  (** Own gimme in flight (used when throttling). *)
}

let trap_queue state = Proto_util.Traps.to_list state.traps
let last_stamp state = state.last_stamp
let is_searching state = state.searching

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ -> Metrics.Control_msg

let label = function
  | Token { stamp } -> Printf.sprintf "token#%d" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp

let serve_all = Proto_util.serve_all

let push_trap state requester =
  { state with traps = Proto_util.Traps.push state.traps requester }

(* The holder decides what to do with the token: lend it to the oldest
   trapped requester (FIFO, as Theorem 2 requires), or resume rotation.
   Traps for ourselves are satisfied on the spot by [serve_all] earlier,
   so they are skipped here. *)
let rec dispatch (ctx : msg Node_intf.ctx) state ~stamp =
  match Proto_util.Traps.pop state.traps with
  | Some (requester, traps) ->
      if requester = ctx.self then dispatch ctx { state with traps } ~stamp
      else begin
        ctx.send ~dst:requester (Loan { stamp });
        { state with holding = Lent { stamp }; traps }
      end
  | None ->
      ctx.send
        ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
        (Token { stamp = stamp + 1 });
      { state with holding = Not_holding }

let launch_search (ctx : msg Node_intf.ctx) state =
  let span = ctx.n / 2 in
  if span < 1 then state
  else begin
    let dst = Node_intf.forward_node ~n:ctx.n ctx.self span in
    ctx.send ~channel:Network.Cheap ~dst
      (Gimme { requester = ctx.self; span; stamp = state.last_stamp });
    { state with searching = true }
  end

let make ?(throttle = false) ?name:(proto_name = if throttle then "binsearch-throttle" else "binsearch")
    () : (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = proto_name

    let describe =
      if throttle then
        "System BinarySearch with single-outstanding-request throttling \
         (§4.4): at most one gimme in flight per node"
      else
        "System BinarySearch: ring rotation + binary token search with \
         traps; O(log N) responsiveness"

    let classify = classify
    let label = label

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then begin
        ctx.possession ();
        ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Token { stamp = 1 })
      end;
      {
        last_stamp = 0;
        holding = Not_holding;
        traps = Proto_util.Traps.empty;
        searching = false;
      }

    let on_request (ctx : msg Node_intf.ctx) state =
      if throttle && state.searching then state else launch_search ctx state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp } ->
          ctx.possession ();
          serve_all ctx;
          let state = { state with last_stamp = stamp; searching = false } in
          dispatch ctx state ~stamp
      | Loan { stamp } ->
          (* Borrowed token: use it and return it immediately (rule 8). *)
          ctx.possession ();
          serve_all ctx;
          ctx.send ~dst:src (Return { stamp });
          { state with searching = false }
      | Return { stamp } ->
          (* Our loan came back; serve whatever arrived meanwhile, then
             the next trap or the rotation resumes from here (rule 7's
             "continues to flow from where it was first intercepted").
             [dispatch] sets [holding] on every path. *)
          ctx.possession ();
          serve_all ctx;
          dispatch ctx state ~stamp
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state (* our own search came home *)
          else begin
            ctx.search_forward ();
            let state = push_trap state requester in
            match state.holding with
            | Lent _ -> state (* token already on loan; trap waits *)
            | Not_holding ->
                if span >= 2 then begin
                  let jump = span / 2 in
                  (* ⊂_C as a stamp comparison: if the token visited us
                     after visiting the requester, it is ahead — chase
                     clockwise; otherwise it lags behind — search
                     counter-clockwise. *)
                  let dir = if state.last_stamp >= stamp then jump else -jump in
                  let dst = Node_intf.forward_node ~n:ctx.n ctx.self dir in
                  ctx.send ~channel:Network.Cheap ~dst
                    (Gimme { requester; span = jump; stamp })
                end;
                state
          end

    let on_timer _ctx state ~key:_ = state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))

let protocol_throttled : (module Node_intf.PROTOCOL) =
  (module (val make ~throttle:true ()))
