let first_fit ~bins ~items =
  Array.for_all
    (fun item ->
      match Array.find_opt (fun bin -> Bin.fits bin item) bins with
      | Some bin ->
          Bin.place bin item;
          true
      | None -> false)
    items

let best_fit ~rank ~bins ~items =
  Array.for_all
    (fun item ->
      let best = ref None and best_score = ref infinity in
      Array.iter
        (fun bin ->
          if Bin.fits bin item then begin
            (* Smaller score = more preferred bin. *)
            let s =
              match rank with
              | Packing.Fit.By_load -> -.Bin.load_sum bin
              | Packing.Fit.By_remaining -> Bin.remaining_sum bin
            in
            if s < !best_score then begin
              best := Some bin;
              best_score := s
            end
          end)
        bins;
      match !best with
      | Some bin ->
          Bin.place bin item;
          true
      | None -> false)
    items

let assignment ~bins ~n_items =
  let assign = Array.make n_items (-1) in
  Array.iter
    (fun (bin : Bin.t) ->
      List.iter (fun id -> assign.(id) <- bin.id) bin.contents)
    bins;
  assign
