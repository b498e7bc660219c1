(* Tests for the simulation substrate: RNG, engine, trace. *)

module Rng = Recflow_sim.Rng
module Engine = Recflow_sim.Engine
module Trace = Recflow_sim.Trace
module Profile = Recflow_obs_core.Profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Rng ---------------- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  check "different seeds diverge" true (Rng.next_int64 a <> Rng.next_int64 b)

let rng_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  (* b is now one draw behind and stays independent *)
  check "copies evolve separately" true (Rng.next_int64 a <> Rng.next_int64 b)

let rng_split_diverges () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 16 (fun _ -> Rng.next_int64 b) in
  check "split streams differ" true (xs <> ys)

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let t = Rng.create seed in
      let x = Rng.int_in t lo (lo + span) in
      x >= lo && x <= lo + span)

(* The first 32 draws of each generator entry point for four seeds, as
   the int64-record generator produced them before its state moved into an
   unboxed byte buffer.  Every simulation's placement, jitter, chaos and
   arrival draws come from these streams, so a state-layout change that
   altered one of them would silently change every run.  Even-indexed
   [int] draws use bound 1_000_003; odd ones use 2^61 + 1, which rejects
   about half the raw draws and so pins the rejection path too.  Floats
   are compared bit for bit; [split] is pinned by each child's first raw
   draw. *)
let rng_pins =
  [
    ( 0,
      [| 607872; 121904254867886419; 899533; 490437550606523686; 425248; 801824006500076728; 710615;
         1133040290248155824; 393695; 1828385819961610050; 282667; 2254720765600760981; 545711;
         943990553302029273; 742881; 1518375760479688915; 396638; 1904472539284425920; 521995;
         999602818651848841; 736524; 96276870668398922; 578136; 1898482598585582128; 24269;
         1085104078059262184; 885303; 1435098643125323210; 636379; 347863650467339635; 109715;
         337775926421387853 |],
      [| 0x3fdb9e279aa86e58L; 0x3f9b117462002500L; 0x3fef1177150e4990L; 0x3fbb39896a51a870L;
         0x3fd4f2e7c31d1fa8L; 0x3fc6414d5f0fa298L; 0x3fe8b082675922d5L; 0x3fcf72bc4820e4c4L;
         0x3fee77091186d196L; 0x3fd95fbb374f2c4eL; 0x3fe85a64dc00ab7bL; 0x3fe0c43407fc177bL;
         0x3fe1c3eeaab30755L; 0x3fe6a9c1e2c01989L; 0x3fe09767f2f2e3b0L; 0x3fdf4a60971d5484L;
         0x3fe879e2e2056fefL; 0x3fca3374d041c8a4L; 0x3feb0351a56b4890L; 0x3feb602c05620173L;
         0x3fe52071524304beL; 0x3fedbebe3b21b945L; 0x3fd5125ab59ef498L; 0x3febaf803a9ea80eL;
         0x3fe26bd05e3b6989L; 0x3fda6e0baf2488ccL; 0x3fd034a7ad5f7874L; 0x3fe45e13b5768b8cL;
         0x3fedca43af41e9a7L; 0x3fee2d2a5dce5e68L; 0x3fcbbe9aef547200L; 0x3fa8fbd00c92c770L |],
      "01010101010111110001100110000110",
      [| 0x46b73e79f0c37c00L; 0xee2751b92135351cL; 0x4e213bb3324a7b38L; 0x4694c35b74d11c5cL;
         0x13d3e7a6c63b012cL; 0x6a9216023fd7dc5dL; 0xea5787965e2c85f2L; 0xea36f3cc1d96075L;
         0xd475f18fa30908a9L; 0xd70528ba4b0b9233L; 0x1657ff9edcd0b634L; 0xc47b3d089030d09cL;
         0xad54453f34420004L; 0x771b298ed5912eb8L; 0x14d6c6bfbea13f21L; 0x38b535e8e762fa89L;
         0xb06a7a3532d31e9L; 0x23a1ad94adeeaa95L; 0xcf0bf26323bb0345L; 0xf31c50849a0cc299L;
         0x7ba9bb0234cb64f6L; 0x201eb6f7fa9e3cd0L; 0xf991e543999b270dL; 0xac88b6cb63400431L;
         0x59bb8bb2074a9ceaL; 0x23c99bb08d3eca03L; 0xf6933da3885b9770L; 0x912281fc5c513b24L;
         0x9e507575afceeb07L; 0x8545ffd2998bbf56L; 0xb0d7688aa7c9ec79L; 0x24a0eadce9a3c41aL |],
      [| 0x405502b4dbdde968L; 0x4076b4fb06f5f123L; 0x4007a3ea2a377f62L; 0x406c035cda88531aL;
         0x405beb841bfcbb5bL; 0x4065de455a56e16cL; 0x4039ef92514b3bdaL; 0x40618bce02e9a166L;
         0x4013a9c7a11a3462L; 0x40572106288f93ceL; 0x403b4ec36557e58cL; 0x405028b0c447872bL;
         0x404d6c9ce4939ca4L; 0x40413ff6d5429dadL; 0x40506bd667c83726L; 0x4051e3a19a52ecacL;
         0x403acdc6049dc044L; 0x4063d3f1c7835ba5L; 0x4030f1203ec20100L; 0x402f375b365de931L;
         0x4044c28522c468aeL; 0x401d3a8dea72cdd7L; 0x405bc6184ea45881L; 0x402cf70dd19c23c5L;
         0x404b9ca0b18c4b8eL; 0x40561c1602253b24L; 0x40612b447516820dL; 0x404696fd175e41a0L;
         0x401c9fbcd380a861L; 0x4017784d44ee4c59L; 0x40631cc53f733a9eL; 0x4072e02a4dd17841L |] );
    ( 1,
      [| 218951; 490437550606523686; 425248; 801824006500076728; 710615; 1133040290248155824;
         393695; 1828385819961610050; 282667; 2254720765600760981; 545711; 943990553302029273;
         742881; 1518375760479688915; 396638; 1904472539284425920; 521995; 999602818651848841;
         736524; 96276870668398922; 578136; 1898482598585582128; 24269; 1085104078059262184; 885303;
         1435098643125323210; 636379; 347863650467339635; 109715; 337775926421387853; 41661;
         1126246443553627755 |],
      [| 0x3f9b117462002500L; 0x3fef1177150e4990L; 0x3fbb39896a51a870L; 0x3fd4f2e7c31d1fa8L;
         0x3fc6414d5f0fa298L; 0x3fe8b082675922d5L; 0x3fcf72bc4820e4c4L; 0x3fee77091186d196L;
         0x3fd95fbb374f2c4eL; 0x3fe85a64dc00ab7bL; 0x3fe0c43407fc177bL; 0x3fe1c3eeaab30755L;
         0x3fe6a9c1e2c01989L; 0x3fe09767f2f2e3b0L; 0x3fdf4a60971d5484L; 0x3fe879e2e2056fefL;
         0x3fca3374d041c8a4L; 0x3feb0351a56b4890L; 0x3feb602c05620173L; 0x3fe52071524304beL;
         0x3fedbebe3b21b945L; 0x3fd5125ab59ef498L; 0x3febaf803a9ea80eL; 0x3fe26bd05e3b6989L;
         0x3fda6e0baf2488ccL; 0x3fd034a7ad5f7874L; 0x3fe45e13b5768b8cL; 0x3fedca43af41e9a7L;
         0x3fee2d2a5dce5e68L; 0x3fcbbe9aef547200L; 0x3fa8fbd00c92c770L; 0x3f9560b4dc446b00L |],
      "10101010101111100011001100001101",
      [| 0xee2751b92135351cL; 0x4e213bb3324a7b38L; 0x4694c35b74d11c5cL; 0x13d3e7a6c63b012cL;
         0x6a9216023fd7dc5dL; 0xea5787965e2c85f2L; 0xea36f3cc1d96075L; 0xd475f18fa30908a9L;
         0xd70528ba4b0b9233L; 0x1657ff9edcd0b634L; 0xc47b3d089030d09cL; 0xad54453f34420004L;
         0x771b298ed5912eb8L; 0x14d6c6bfbea13f21L; 0x38b535e8e762fa89L; 0xb06a7a3532d31e9L;
         0x23a1ad94adeeaa95L; 0xcf0bf26323bb0345L; 0xf31c50849a0cc299L; 0x7ba9bb0234cb64f6L;
         0x201eb6f7fa9e3cd0L; 0xf991e543999b270dL; 0xac88b6cb63400431L; 0x59bb8bb2074a9ceaL;
         0x23c99bb08d3eca03L; 0xf6933da3885b9770L; 0x912281fc5c513b24L; 0x9e507575afceeb07L;
         0x8545ffd2998bbf56L; 0xb0d7688aa7c9ec79L; 0x24a0eadce9a3c41aL; 0x1dea3c0d6fb89e74L |],
      [| 0x4076b4fb06f5f123L; 0x4007a3ea2a377f62L; 0x406c035cda88531aL; 0x405beb841bfcbb5bL;
         0x4065de455a56e16cL; 0x4039ef92514b3bdaL; 0x40618bce02e9a166L; 0x4013a9c7a11a3462L;
         0x40572106288f93ceL; 0x403b4ec36557e58cL; 0x405028b0c447872bL; 0x404d6c9ce4939ca4L;
         0x40413ff6d5429dadL; 0x40506bd667c83726L; 0x4051e3a19a52ecacL; 0x403acdc6049dc044L;
         0x4063d3f1c7835ba5L; 0x4030f1203ec20100L; 0x402f375b365de931L; 0x4044c28522c468aeL;
         0x401d3a8dea72cdd7L; 0x405bc6184ea45881L; 0x402cf70dd19c23c5L; 0x404b9ca0b18c4b8eL;
         0x40561c1602253b24L; 0x40612b447516820dL; 0x404696fd175e41a0L; 0x401c9fbcd380a861L;
         0x4017784d44ee4c59L; 0x40631cc53f733a9eL; 0x4072e02a4dd17841L; 0x40782e97d5a536edL |] );
    ( 7,
      [| 482413; 1828385819961610050; 282667; 2254720765600760981; 545711; 943990553302029273;
         742881; 1518375760479688915; 396638; 1904472539284425920; 521995; 999602818651848841;
         736524; 96276870668398922; 578136; 1898482598585582128; 24269; 1085104078059262184; 885303;
         1435098643125323210; 636379; 347863650467339635; 109715; 337775926421387853; 41661;
         1126246443553627755; 214956; 2148645238756375736; 896760; 587221522096955229; 116094;
         867366040385323952 |],
      [| 0x3fcf72bc4820e4c4L; 0x3fee77091186d196L; 0x3fd95fbb374f2c4eL; 0x3fe85a64dc00ab7bL;
         0x3fe0c43407fc177bL; 0x3fe1c3eeaab30755L; 0x3fe6a9c1e2c01989L; 0x3fe09767f2f2e3b0L;
         0x3fdf4a60971d5484L; 0x3fe879e2e2056fefL; 0x3fca3374d041c8a4L; 0x3feb0351a56b4890L;
         0x3feb602c05620173L; 0x3fe52071524304beL; 0x3fedbebe3b21b945L; 0x3fd5125ab59ef498L;
         0x3febaf803a9ea80eL; 0x3fe26bd05e3b6989L; 0x3fda6e0baf2488ccL; 0x3fd034a7ad5f7874L;
         0x3fe45e13b5768b8cL; 0x3fedca43af41e9a7L; 0x3fee2d2a5dce5e68L; 0x3fcbbe9aef547200L;
         0x3fa8fbd00c92c770L; 0x3f9560b4dc446b00L; 0x3fea4a8e83eb33b8L; 0x3fda58c3dd64f442L;
         0x3fd05fbe586076a8L; 0x3fce1e20d1da19a0L; 0x3fdb86641772f94cL; 0x3fd3ea7e9cc92144L |],
      "10101111100011001100001101111111",
      [| 0xea36f3cc1d96075L; 0xd475f18fa30908a9L; 0xd70528ba4b0b9233L; 0x1657ff9edcd0b634L;
         0xc47b3d089030d09cL; 0xad54453f34420004L; 0x771b298ed5912eb8L; 0x14d6c6bfbea13f21L;
         0x38b535e8e762fa89L; 0xb06a7a3532d31e9L; 0x23a1ad94adeeaa95L; 0xcf0bf26323bb0345L;
         0xf31c50849a0cc299L; 0x7ba9bb0234cb64f6L; 0x201eb6f7fa9e3cd0L; 0xf991e543999b270dL;
         0xac88b6cb63400431L; 0x59bb8bb2074a9ceaL; 0x23c99bb08d3eca03L; 0xf6933da3885b9770L;
         0x912281fc5c513b24L; 0x9e507575afceeb07L; 0x8545ffd2998bbf56L; 0xb0d7688aa7c9ec79L;
         0x24a0eadce9a3c41aL; 0x1dea3c0d6fb89e74L; 0x2ee6447bee10b525L; 0xae79f3a216c85266L;
         0x8202831e65071903L; 0xa09f0c42fd7e2ffdL; 0xf7bab635d6f94364L; 0x50a045025f73cacfL |],
      [| 0x40618bce02e9a166L; 0x4013a9c7a11a3462L; 0x40572106288f93ceL; 0x403b4ec36557e58cL;
         0x405028b0c447872bL; 0x404d6c9ce4939ca4L; 0x40413ff6d5429dadL; 0x40506bd667c83726L;
         0x4051e3a19a52ecacL; 0x403acdc6049dc044L; 0x4063d3f1c7835ba5L; 0x4030f1203ec20100L;
         0x402f375b365de931L; 0x4044c28522c468aeL; 0x401d3a8dea72cdd7L; 0x405bc6184ea45881L;
         0x402cf70dd19c23c5L; 0x404b9ca0b18c4b8eL; 0x40561c1602253b24L; 0x40612b447516820dL;
         0x404696fd175e41a0L; 0x401c9fbcd380a861L; 0x4017784d44ee4c59L; 0x40631cc53f733a9eL;
         0x4072e02a4dd17841L; 0x40782e97d5a536edL; 0x4033a667c4c2b507L; 0x4056303f3829ba37L;
         0x40610a34015ea402L; 0x40621622e8cb31aaL; 0x40551841032ecbb7L; 0x405d2f1a83b15f12L |] );
    ( 1099511627776,
      [| 553058; 1145134879154223316; 992870; 1216578853512309402; 155307; 1204038324590183739;
         550652; 598990201987780795; 403226; 1771631699386982316; 763101; 754368605104544072;
         467785; 873420916932639560; 932400; 669693054710802986; 944415; 1460531561453038215;
         465648; 1578615922529205962; 68365; 90166542837728387; 807195; 1676083811985709630; 832711;
         490719743059148457; 157974; 653439245405909758; 301722; 676646838443145498; 755102;
         1288723807717115783 |],
      [| 0x3fa73e38dc995b00L; 0x3fcfc8ac35f7cb70L; 0x3fe6d70ef2d44f7cL; 0x3fd0e2280584da6aL;
         0x3febd4bc4ce9fbdaL; 0x3fe80edce2f990feL; 0x3fd0b59a7a192784L; 0x3fdbcfbe1d98e5eeL;
         0x3fe52a31b98de0ebL; 0x3fc0a014d48ad7a0L; 0x3fa56a9250a1cd10L; 0x3fd89619a4e2c85eL;
         0x3fe121be8ccc37aaL; 0x3fc4f01c7fc1ed30L; 0x3fe36e823affa1b3L; 0x3fc83e07648a54f4L;
         0x3feaf6e5b66218feL; 0x3fc2967491f52ad4L; 0x3fea7dad0ea3d25eL; 0x3fd444d9b787a7aaL;
         0x3f92e087eb1e4520L; 0x3fecccf12a93dc07L; 0x3fd5e85ed15320feL; 0x3fea933408a3e5feL;
         0x3f94055fe3477c40L; 0x3feb7b6e03431c39L; 0x3fd742a558c330daL; 0x3fee73ed1ec7c820L;
         0x3fefe5d8af21e82eL; 0x3fbb3d8c06853ef8L; 0x3febed68a4737cbdL; 0x3fc222f710316fe4L |],
      "00111100010100001110001011110010",
      [| 0x87229a24f7ee674cL; 0x4397357e487f38fcL; 0xe26ecad959e6f5dfL; 0x5c5ae281ea06b360L;
         0x993aeb6930f84f0bL; 0xb6b9eb78da0241b4L; 0x9af85eca0aacf488L; 0xb6483c802dedf555L;
         0xa80acb90f4aead10L; 0xa79a9c868d206e20L; 0x61e6de34b4239c0aL; 0x602be27c9610c95L;
         0xcffb7c7106ee5a28L; 0xf94f0251c808443eL; 0x578963cef23438a9L; 0x8234eef3720d2f80L;
         0x54702cdeb14d703fL; 0x7af7254609f3a06dL; 0x822f59c5714fab04L; 0x1ab83b6e1c9df957L;
         0xede9dc56752e1f94L; 0xc825680a75a7de7dL; 0x97d2661bcf974959L; 0x89de9dbdf13a3266L;
         0xf7c61f8b45ac1389L; 0xc8f77423e0ad4acaL; 0xc7369e8c8013fa1fL; 0x1d02896ecc8ba1e6L;
         0xb5b37f613886d489L; 0x64029b9998bab387L; 0xbdcd660a9f9c5692L; 0xb4bb309821fe9f4L |],
      [| 0x407353b58d368824L; 0x406169d3d6c001c6L; 0x4040dc6870793002L; 0x4060a829a1a9bd93L;
         0x402beac68699ac99L; 0x403c86ceae3b231dL; 0x4060c951caad1e93L; 0x4054d5f9b9b2b458L;
         0x4044ab764ac0f37cL; 0x40698388091e68c1L; 0x4073d6ad1287ca75L; 0x4057ead50c8fe934L;
         0x404f3d6c6a814a65L; 0x4066a17f20aae21cL; 0x4048f10ae85fd049L; 0x4064cc947287a138L;
         0x40311f26b5d4a0a9L; 0x40681e7e6b2f4d86L; 0x4032e4b48ad45f80L; 0x405cbeacf680e0ecL;
         0x4078f5a34841e9d2L; 0x40251178cf33c3deL; 0x405acd169eb228bbL; 0x4032939239e969dcL;
         0x407897812c431791L; 0x402e709a960bfc23L; 0x40594da78c274960L; 0x4013d29c6080d7d3L;
         0x3fd4771544acbe30L; 0x406c0185a1618430L; 0x402b39c63e493261L; 0x40686d1e18bdf32cL |] );
  ]

let rng_stream_pins () =
  let bits = Int64.bits_of_float in
  let bound i = if i mod 2 = 0 then 1_000_003 else (1 lsl 61) + 1 in
  List.iter
    (fun (seed, ints, floats, bools, splits, exps) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let r = Rng.create seed in
      Alcotest.(check (array int)) (name "int") ints (Array.init 32 (fun i -> Rng.int r (bound i)));
      let r = Rng.create seed in
      Alcotest.(check (array int64))
        (name "float") floats
        (Array.init 32 (fun _ -> bits (Rng.float r 1.0)));
      let r = Rng.create seed in
      Alcotest.(check string)
        (name "bool") bools
        (String.init 32 (fun _ -> if Rng.bool r then '1' else '0'));
      let r = Rng.create seed in
      Alcotest.(check (array int64))
        (name "split") splits
        (Array.init 32 (fun _ -> Rng.next_int64 (Rng.split r)));
      let r = Rng.create seed in
      Alcotest.(check (array int64))
        (name "exponential") exps
        (Array.init 32 (fun _ -> bits (Rng.exponential r 100.0))))
    rng_pins

let rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.float t bound in
      x >= 0.0 && x < bound)

let rng_exponential_positive () =
  let t = Rng.create 11 in
  for _ = 1 to 200 do
    check "exp >= 0" true (Rng.exponential t 5.0 >= 0.0)
  done

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"Rng.shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let t = Rng.create seed in
      let arr = Array.of_list xs in
      Rng.shuffle t arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let rng_pick_member () =
  let t = Rng.create 2 in
  let arr = [| 1; 5; 9 |] in
  for _ = 1 to 50 do
    let x = Rng.pick t arr in
    check "pick from array" true (Array.exists (fun y -> y = x) arr)
  done

let rng_int_unbiased_small_bound () =
  (* Rejection sampling: every residue of a small bound lands within a
     tight band of the expected frequency. *)
  let t = Rng.create 97 in
  let bound = 3 and draws = 30_000 in
  let buckets = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Rng.int t bound in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i n ->
      check
        (Printf.sprintf "bucket %d near uniform (%d)" i n)
        true
        (abs (n - (draws / bound)) < draws / 20))
    buckets

let rng_int_huge_bound_in_range () =
  (* bound = max_int (2^62 - 1) is the worst case for the old modulo: the
     raw 62-bit draw is taken nearly verbatim, so any sign/wrap slip shows
     up immediately. *)
  let t = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int t max_int in
    check "in [0, max_int)" true (x >= 0 && x < max_int)
  done

let rng_int_stream_stable () =
  (* The fix must not disturb the accepted stream: for small bounds the
     draw is (virtually) never rejected, so the sequence is exactly the
     pre-fix [r mod bound] one.  Pinned so silent stream changes fail. *)
  let t = Rng.create 42 in
  let got = List.init 8 (fun _ -> Rng.int t 100) in
  let u = Rng.create 42 in
  let expected =
    List.init 8 (fun _ ->
        Int64.to_int (Int64.rem (Int64.shift_right_logical (Rng.next_int64 u) 2) 100L))
  in
  Alcotest.(check (list int)) "same stream as r mod bound" expected got

(* ---------------- Engine ---------------- *)

let engine_orders_by_time () =
  let e = Engine.create () in
  Engine.schedule e ~delay:30 "c";
  Engine.schedule e ~delay:10 "a";
  Engine.schedule e ~delay:20 "b";
  let order = ref [] in
  Engine.run e (fun _ ev -> order := ev :: !order);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let engine_fifo_ties () =
  let e = Engine.create () in
  List.iter (fun s -> Engine.schedule e ~delay:5 s) [ "1"; "2"; "3"; "4" ];
  let order = ref [] in
  Engine.run e (fun _ ev -> order := ev :: !order);
  Alcotest.(check (list string)) "FIFO at equal time" [ "1"; "2"; "3"; "4" ] (List.rev !order)

let engine_clock_advances () =
  let e = Engine.create () in
  Engine.schedule e ~delay:42 ();
  (match Engine.next e with
  | Some (at, ()) -> check_int "timestamp" 42 at
  | None -> Alcotest.fail "missing event");
  check_int "clock" 42 (Engine.now e)

let engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 ();
  ignore (Engine.next e);
  check "scheduling in the past rejected" true
    (try
       Engine.schedule_at e ~time:5 ();
       false
     with Invalid_argument _ -> true)

let engine_negative_delay () =
  let e = Engine.create () in
  check "negative delay rejected" true
    (try
       Engine.schedule e ~delay:(-1) ();
       false
     with Invalid_argument _ -> true)

let engine_until_horizon () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 "in";
  Engine.schedule e ~delay:100 "out";
  let seen = ref [] in
  Engine.run e ~until:50 (fun _ ev -> seen := ev :: !seen);
  Alcotest.(check (list string)) "horizon respected" [ "in" ] (List.rev !seen);
  check_int "event beyond horizon still queued" 1 (Engine.pending e)

let engine_stop () =
  let e = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule e ~delay:i i
  done;
  let n = ref 0 in
  Engine.run e (fun _ _ ->
      incr n;
      if !n = 2 then Engine.stop e);
  check_int "stopped after two" 2 !n;
  check_int "rest pending" 3 (Engine.pending e)

let engine_dispatch_count () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule e ~delay:1 ()
  done;
  Engine.run e (fun _ () -> ());
  check_int "dispatched" 7 (Engine.events_dispatched e)

let engine_handler_schedules () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1 3;
  let total = ref 0 in
  Engine.run e (fun _ n ->
      total := !total + n;
      if n > 1 then Engine.schedule e ~delay:1 (n - 1));
  check_int "cascade 3+2+1" 6 !total

(* [run] without [until] takes the drain fast path (no per-event horizon
   test): exercise it past the initial slab and across the wheel window, so
   slab growth and compaction, overflow migration and FIFO ties all happen
   inside one drain. *)
let engine_drain_fast_loop () =
  let e = Engine.create () in
  let n = 3000 in
  for i = 0 to n - 1 do
    (* Colliding timestamps: 10 events per instant, FIFO within each. *)
    Engine.schedule e ~delay:(i mod (n / 10)) (i mod (n / 10), i)
  done;
  let last_at = ref (-1) and last_seq = ref (-1) and count = ref 0 in
  Engine.run e (fun at (ev_at, seq) ->
      incr count;
      check_int "handler time matches scheduled time" ev_at at;
      check "times non-decreasing" true (at >= !last_at);
      if at = !last_at then check "FIFO among equal times" true (seq > !last_seq);
      last_at := at;
      last_seq := seq);
  check_int "all events drained" n !count;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "dispatch count" n (Engine.events_dispatched e)

(* The packed (time, seq) priority has explicit range guards rather than
   silent wraparound. *)
let engine_time_range_guard () =
  let e = Engine.create () in
  check "astronomic timestamp rejected" true
    (try
       Engine.schedule_at e ~time:max_int "too far";
       false
     with Invalid_argument _ -> true);
  (* A large-but-packable time still works (2^34 is the documented bound). *)
  Engine.schedule_at e ~time:((1 lsl 34) - 1) "far";
  match Engine.next e with
  | Some (at, "far") -> check_int "far event dispatched" ((1 lsl 34) - 1) at
  | _ -> Alcotest.fail "far event lost"

(* A vacated slot left pointing at its payload would pin the popped event
   until the slot was reused.  Payloads are boxed and watched through a
   [Weak] array; half of them are scheduled beyond the wheel window, so they
   pass through the overflow heap before their bucket.  Once drained — half
   through [next], half through [run] — and after a major GC they must all
   be collectable. *)
let engine_pop_releases () =
  let n = 32 in
  let weak = Weak.create n in
  let e = Engine.create () in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Engine.schedule e ~delay:(if i mod 2 = 0 then i else 300 + (i * 40)) payload
  done;
  for _ = 1 to n / 2 do
    ignore (Engine.next e)
  done;
  Engine.run e (fun _ _ -> ());
  Gc.full_major ();
  let retained = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr retained
  done;
  check_int "popped payloads collected" 0 !retained;
  (* Used after the collection so the engine itself is still live during it:
     a dead engine would release its store and hide a leak. *)
  check_int "engine drained" 0 (Engine.pending e)

(* The [Obj.t] payload store must never become a flat float array: float
   payloads stay boxed, survive a grow past the initial capacity, and
   drain in time order. *)
let engine_float_payloads () =
  let n = 300 in
  let e = Engine.create () in
  for at = n - 1 downto 0 do
    Engine.schedule_at e ~time:at (float_of_int at +. 0.5)
  done;
  (match Engine.next e with
  | Some (at, x) ->
    check_int "earliest first" 0 at;
    Alcotest.(check (float 0.0)) "first payload" 0.5 x
  | None -> Alcotest.fail "float event lost");
  let got = ref [] in
  Engine.run e (fun at x ->
      Alcotest.(check (float 0.0)) "payload matches its time" (float_of_int at +. 0.5) x;
      got := at :: !got);
  Alcotest.(check (list int)) "time order" (List.init (n - 1) (fun i -> i + 1)) (List.rev !got)

(* Interleaving around the compaction threshold must preserve time and
   FIFO order: the slab and the overflow heap grow well past their initial
   capacities, then halve repeatedly as they drain. *)
let engine_shrink_keeps_order () =
  let per_instant = 4 and instants = 512 in
  let n = per_instant * instants in
  let e = Engine.create () in
  let seq = ref 0 in
  for at = instants - 1 downto 0 do
    for _ = 1 to per_instant do
      Engine.schedule_at e ~time:at !seq;
      incr seq
    done
  done;
  let last = ref (-1, -1) in
  let step at s =
    let last_at, last_s = !last in
    check "times non-decreasing" true (at >= last_at);
    if at = last_at then check "FIFO among equal times" true (s > last_s);
    last := (at, s)
  in
  let tail = 11 in
  for _ = 1 to n - tail do
    match Engine.next e with Some (at, s) -> step at s | None -> Alcotest.fail "drained early"
  done;
  check_int "tail intact" tail (Engine.pending e);
  let rest = ref 0 in
  Engine.run e (fun at s ->
      incr rest;
      step at s);
  check_int "tail drained in order" tail !rest;
  check_int "last instant reached" (instants - 1) (fst !last)

(* An event scheduled while its instant lay beyond the wheel window waits in
   the overflow heap; one scheduled for the same instant after the window
   covers it goes straight to the bucket.  The first must still fire first,
   at either edge of the window. *)
let engine_overflow_before_direct () =
  let far = 1000 in
  List.iter
    (fun clock ->
      let e = Engine.create () in
      Engine.schedule_at e ~time:far "A";
      Engine.schedule_at e ~time:clock "tick";
      (match Engine.next e with
      | Some (at, "tick") -> check_int "clock advanced" clock at
      | _ -> Alcotest.fail "tick lost");
      Engine.schedule_at e ~time:far "B";
      let order = ref [] in
      Engine.run e (fun at ev ->
          check_int "fires at its instant" far at;
          order := ev :: !order);
      Alcotest.(check (list string))
        (Printf.sprintf "A before B with the clock at %d" clock)
        [ "A"; "B" ] (List.rev !order))
    [ far - 256; far - 255; far - 1 ]

(* A drained engine must give back its high-water storage: after a burst
   of 10,000 events, most of them through the wheel and the rest through
   the overflow heap, it may hold at most a few dozen words more than a
   fresh one. *)
let engine_drained_releases_storage () =
  let e = Engine.create () in
  for i = 0 to 9_999 do
    Engine.schedule e ~delay:(i * 7919 mod 600) i
  done;
  Engine.run e (fun _ _ -> ());
  check_int "drained" 0 (Engine.pending e);
  let fresh = Obj.reachable_words (Obj.repr (Engine.create () : int Engine.t)) in
  let drained = Obj.reachable_words (Obj.repr e) in
  if drained > fresh + 64 then
    Alcotest.failf "drained engine holds %d words, a fresh one %d" drained fresh

(* Differential check against a reference queue: a list kept sorted by
   (time, seq).  A random program mixes relative and absolute scheduling
   (about a quarter of the delays beyond the wheel window), follow-ups
   scheduled from inside the handler (delay 0 included), [next],
   [run ~until] and [run] cut short by [stop]; the engine and the model
   must dispatch the same events at the same times, and agree on the clock
   and the pending count after every step.  Each program runs with the
   profiler off and on, since [run] has a separate drain loop for each. *)
module Model = struct
  type 'a t = {
    mutable queue : (int * int * 'a) list;  (* sorted by (time, seq) *)
    mutable clock : int;
    mutable seq : int;
    mutable stopping : bool;
  }

  let create () = { queue = []; clock = 0; seq = 0; stopping = false }

  let schedule_at m ~time x =
    let key = (time, m.seq) in
    let rec insert = function
      | ((at, s, _) as ev) :: rest when (at, s) < key -> ev :: insert rest
      | l -> (time, m.seq, x) :: l
    in
    m.queue <- insert m.queue;
    m.seq <- m.seq + 1

  let next m =
    match m.queue with
    | [] -> None
    | (at, _, x) :: rest ->
      m.queue <- rest;
      m.clock <- at;
      Some (at, x)

  let run m ?until handler =
    m.stopping <- false;
    let rec loop () =
      if not m.stopping then
        match (m.queue, until) with
        | [], _ -> ()
        | (at, _, _) :: _, Some limit when at > limit -> ()
        | _ -> (
          match next m with
          | Some (at, x) ->
            handler at x;
            loop ()
          | None -> ())
    in
    loop ()
end

type engine_op =
  | Schedule of int * int list  (* delay, follow-up delays *)
  | Schedule_at of int * int list  (* time as an offset from now *)
  | Next
  | Run_until of int  (* horizon as an offset from now *)
  | Run_stop of int  (* stop after this many events *)

let engine_op_gen =
  let open QCheck.Gen in
  let delay = frequency [ (3, int_range 0 255); (1, int_range 256 1200) ] in
  let follow_ups = list_size (int_range 0 3) (frequency [ (1, return 0); (3, delay) ]) in
  frequency
    [
      (5, map2 (fun d f -> Schedule (d, f)) delay follow_ups);
      (2, map2 (fun d f -> Schedule_at (d, f)) delay follow_ups);
      (2, return Next);
      (1, map (fun d -> Run_until d) (int_range 0 600));
      (1, map (fun k -> Run_stop k) (int_range 1 40));
    ]

let print_engine_op = function
  | Schedule (d, f) ->
    Printf.sprintf "schedule %d [%s]" d (String.concat ";" (List.map string_of_int f))
  | Schedule_at (d, f) ->
    Printf.sprintf "schedule_at now+%d [%s]" d (String.concat ";" (List.map string_of_int f))
  | Next -> "next"
  | Run_until d -> Printf.sprintf "run ~until:(now+%d)" d
  | Run_stop k -> Printf.sprintf "run, stop after %d" k

(* One side of the comparison: the engine or the model behind the same
   closures.  A payload is (id, follow-up delays); follow-ups carry none. *)
type side = {
  schedule : delay:int -> int * int list -> unit;
  schedule_at : time:int -> int * int list -> unit;
  now : unit -> int;
  pending : unit -> int;
  next : unit -> (int * (int * int list)) option;
  run : ?until:int -> (int -> int * int list -> unit) -> unit;
  stop : unit -> unit;
}

let engine_side () =
  let e = Engine.create () in
  {
    schedule = (fun ~delay x -> Engine.schedule e ~delay x);
    schedule_at = (fun ~time x -> Engine.schedule_at e ~time x);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending e);
    next = (fun () -> Engine.next e);
    run = (fun ?until h -> Engine.run e ?until h);
    stop = (fun () -> Engine.stop e);
  }

let model_side () =
  let m = Model.create () in
  {
    schedule = (fun ~delay x -> Model.schedule_at m ~time:(m.Model.clock + delay) x);
    schedule_at = (fun ~time x -> Model.schedule_at m ~time x);
    now = (fun () -> m.Model.clock);
    pending = (fun () -> List.length m.Model.queue);
    next = (fun () -> Model.next m);
    run = (fun ?until h -> Model.run m ?until h);
    stop = (fun () -> m.Model.stopping <- true);
  }

(* Interpret [ops] on one side; the result lists every dispatch as
   (time, id, 0) and, after every step and at the end, (-1, now, pending). *)
let interpret side ops =
  let log = ref [] in
  let fire at (id, follow_ups) =
    log := (at, id, 0) :: !log;
    List.iteri (fun i d -> side.schedule ~delay:d ((id * 8) + i + 1, [])) follow_ups
  in
  List.iteri
    (fun k op ->
      let id = (k + 1) * 64 in
      (match op with
      | Schedule (d, f) -> side.schedule ~delay:d (id, f)
      | Schedule_at (d, f) -> side.schedule_at ~time:(side.now () + d) (id, f)
      | Next -> Option.iter (fun (at, x) -> fire at x) (side.next ())
      | Run_until d -> side.run ~until:(side.now () + d) fire
      | Run_stop n ->
        let count = ref 0 in
        side.run (fun at x ->
            fire at x;
            incr count;
            if !count = n then side.stop ()));
      log := (-1, side.now (), side.pending ()) :: !log)
    ops;
  side.run fire;
  List.rev ((-1, side.now (), side.pending ()) :: !log)

let engine_matches_model =
  QCheck.Test.make ~count:300 ~name:"engine dispatches like a sorted model"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_engine_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) engine_op_gen))
    (fun ops ->
      let expected = interpret (model_side ()) ops in
      let plain = interpret (engine_side ()) ops in
      Profile.set_enabled true;
      let profiled =
        Fun.protect
          ~finally:(fun () ->
            Profile.set_enabled false;
            Profile.reset ())
          (fun () -> interpret (engine_side ()) ops)
      in
      plain = expected && profiled = expected)

(* ---------------- Trace ---------------- *)

let trace_basic () =
  let t = Trace.create ~capacity:10 () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"a" "hello";
  Trace.logf t ~time:2 ~level:Trace.Warn ~tag:"b" "x=%d" 42;
  check_int "count" 2 (Trace.count t);
  match Trace.records t with
  | [ r1; r2 ] ->
    Alcotest.(check string) "msg 1" "hello" r1.Trace.message;
    Alcotest.(check string) "msg 2" "x=42" r2.Trace.message
  | _ -> Alcotest.fail "expected two records"

let trace_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.log t ~time:i ~level:Trace.Debug ~tag:"t" (string_of_int i)
  done;
  check_int "total count includes evicted" 5 (Trace.count t);
  Alcotest.(check (list string)) "last three retained" [ "3"; "4"; "5" ]
    (List.map (fun r -> r.Trace.message) (Trace.records t))

let trace_find_by_tag () =
  let t = Trace.create () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"x" "one";
  Trace.log t ~time:2 ~level:Trace.Info ~tag:"y" "two";
  Trace.log t ~time:3 ~level:Trace.Info ~tag:"x" "three";
  Alcotest.(check (list string)) "find x" [ "one"; "three" ]
    (List.map (fun r -> r.Trace.message) (Trace.find t ~tag:"x"))

let trace_clear () =
  let t = Trace.create () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"x" "one";
  Trace.clear t;
  check_int "records dropped" 0 (List.length (Trace.records t))

let trace_capacity_invalid () =
  check "capacity 0 rejected" true
    (try
       ignore (Trace.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick rng_copy_independent;
        Alcotest.test_case "split" `Quick rng_split_diverges;
        Alcotest.test_case "int invalid" `Quick rng_int_invalid;
        Alcotest.test_case "exponential" `Quick rng_exponential_positive;
        Alcotest.test_case "pick" `Quick rng_pick_member;
        Alcotest.test_case "int unbiased" `Quick rng_int_unbiased_small_bound;
        Alcotest.test_case "int huge bound" `Quick rng_int_huge_bound_in_range;
        Alcotest.test_case "int stream stable" `Quick rng_int_stream_stable;
        Alcotest.test_case "stream pins" `Quick rng_stream_pins;
        qtest rng_int_bounds;
        qtest rng_int_in_bounds;
        qtest rng_float_bounds;
        qtest rng_shuffle_permutation;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick engine_orders_by_time;
        Alcotest.test_case "FIFO ties" `Quick engine_fifo_ties;
        Alcotest.test_case "clock" `Quick engine_clock_advances;
        Alcotest.test_case "past rejected" `Quick engine_past_raises;
        Alcotest.test_case "negative delay" `Quick engine_negative_delay;
        Alcotest.test_case "horizon" `Quick engine_until_horizon;
        Alcotest.test_case "stop" `Quick engine_stop;
        Alcotest.test_case "dispatch count" `Quick engine_dispatch_count;
        Alcotest.test_case "handler schedules" `Quick engine_handler_schedules;
        Alcotest.test_case "drain fast loop" `Quick engine_drain_fast_loop;
        Alcotest.test_case "packed time range guard" `Quick engine_time_range_guard;
        Alcotest.test_case "pop releases" `Quick engine_pop_releases;
        Alcotest.test_case "float elements" `Quick engine_float_payloads;
        Alcotest.test_case "shrink keeps order" `Quick engine_shrink_keeps_order;
        Alcotest.test_case "overflow before direct" `Quick engine_overflow_before_direct;
        Alcotest.test_case "drained releases storage" `Quick engine_drained_releases_storage;
        qtest engine_matches_model;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "basic" `Quick trace_basic;
        Alcotest.test_case "ring eviction" `Quick trace_ring_eviction;
        Alcotest.test_case "find by tag" `Quick trace_find_by_tag;
        Alcotest.test_case "clear" `Quick trace_clear;
        Alcotest.test_case "capacity invalid" `Quick trace_capacity_invalid;
      ] );
  ]
