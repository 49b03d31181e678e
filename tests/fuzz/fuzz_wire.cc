// Fuzz harness for the dist/wire.cc decoders (libFuzzer ABI; see
// fuzz_driver.cc for the GCC fallback driver).
//
// The first input byte selects the decoder; the rest is the wire payload.
// The decoders' hardening contract (exact bounds checks before any
// allocation, full-consumption required) means any crash, sanitizer
// report, or runaway allocation here is a real bug. As a cheap oracle,
// every successfully decoded message is re-encoded and re-decoded and
// must survive the round trip.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/wire.h"

namespace {

void Require(bool ok, const char* what) {
  if (!ok) {
    // Abort (not exit) so both libFuzzer and the fallback driver treat a
    // broken oracle exactly like a crash.
    std::fprintf(stderr, "fuzz_wire oracle failed: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string payload(reinterpret_cast<const char*>(data + 1),
                            size - 1);
  using namespace platod2gl;
  switch (data[0] % 4) {
    case 0: {
      wire::SampleRequest req;
      if (wire::DecodeSampleRequest(payload, &req)) {
        const std::string enc = wire::EncodeSampleRequest(req);
        wire::SampleRequest again;
        Require(wire::DecodeSampleRequest(enc, &again), "req re-decode");
        Require(again == req, "req round-trip mismatch");
      }
      break;
    }
    case 1: {
      NeighborBatch batch;
      if (wire::DecodeSampleResponse(payload, &batch)) {
        const std::string enc = wire::EncodeSampleResponse(batch);
        NeighborBatch again;
        Require(wire::DecodeSampleResponse(enc, &again), "resp re-decode");
        Require(enc == wire::EncodeSampleResponse(again),
                "resp round-trip mismatch");
      }
      break;
    }
    case 3: {
      wire::FeatureBatch rows;
      if (wire::DecodeSampleResponse(payload, &rows)) {
        const std::string enc = wire::EncodeSampleResponse(rows);
        wire::FeatureBatch again;
        Require(wire::DecodeSampleResponse(enc, &again), "rows re-decode");
        Require(enc == wire::EncodeSampleResponse(again),
                "rows round-trip mismatch");
      }
      break;
    }
    default: {
      std::vector<EdgeUpdate> batch;
      if (wire::DecodeUpdateBatch(payload, &batch)) {
        const std::string enc = wire::EncodeUpdateBatch(batch);
        std::vector<EdgeUpdate> again;
        Require(wire::DecodeUpdateBatch(enc, &again), "update re-decode");
        Require(enc == wire::EncodeUpdateBatch(again),
                "update round-trip mismatch");
      }
      break;
    }
  }
  return 0;
}
