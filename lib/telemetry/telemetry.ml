(* The library's main module: the one telemetry sink ({!Sink}) plus the
   sibling modules under their public names ([Telemetry.Json],
   [Telemetry.Chrome_trace], [Telemetry.Snapshot], [Telemetry.Profile]). *)

include Sink
module Json = Json
module Chrome_trace = Chrome_trace
module Snapshot = Snapshot
module Profile = Profile
