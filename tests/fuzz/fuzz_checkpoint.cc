// Fuzz harness for the io/checkpoint graph loader (libFuzzer ABI; see
// fuzz_driver.cc for the GCC fallback driver).
//
// LoadGraph consumes a file, so each input (the whole file image) is
// staged through a per-process scratch path. Both v1 (no CRC, the
// interesting surface: every record is parsed from untrusted bytes) and
// v2 (CRC-verified, mostly exercises the footer check) images flow
// through here — the corpus seeds both.
//
// Property under test: the loader rejects malformed input with a Status —
// never a crash, sanitizer report, or unbounded allocation (the
// feature-length prefix is bounds-checked against the file size).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "io/checkpoint.h"
#include "storage/graph_store.h"

namespace {

std::string ScratchPath() {
  static const std::string path = [] {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "/tmp/pd2gl_fuzz_ckpt_%ld.bin",
                  static_cast<long>(getpid()));
    return std::string(buf);
  }();
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace platod2gl;
  const std::string path = ScratchPath();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return 0;
    if (size > 0) std::fwrite(data, 1, size, f);
    std::fclose(f);
  }
  GraphStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.num_relations = 4;
  GraphStore store(cfg);
  (void)LoadGraph(path, &store);  // Status either way; must not crash
  return 0;
}
