(* Aggregated test entry point: every library contributes a [suite]
   value (a list of alcotest suites) from its companion *_tests module. *)

let () =
  Alcotest.run "fireaxe"
    (List.concat
       [
         Firrtl_tests.suite;
         Rtlsim_tests.suite;
         Libdn_tests.suite;
         Socgen_tests.suite;
         Fireripper_tests.suite;
         Noc_tests.suite;
         Des_tests.suite;
         Platform_tests.suite;
         Uarch_tests.suite;
         System_tests.suite;
         Extensions_tests.suite;
         Text_tests.suite;
         Fame1_rtl_tests.suite;
         Mmio_tests.suite;
         Robustness_tests.suite;
         Nic_tests.suite;
         Multiclock_tests.suite;
         Dram_tests.suite;
         Tracer_tests.suite;
         Snapshot_tests.suite;
         Kite5_tests.suite;
         Fame5_rtl_tests.suite;
         Assertions_tests.suite;
         Printf_tests.suite;
         Remote_tests.suite;
         Scheduler_tests.suite;
         Telemetry_tests.suite;
         Resilience_tests.suite;
         Debug_tests.suite;
         Engine_tests.suite;
         Lane_tests.suite;
         Profile_tests.suite;
         Service_tests.suite;
         Wavestore_tests.suite;
         Batch_tests.suite;
         Token_path_tests.suite;
       ])
