#include "nanocost/robust/checkpoint.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "nanocost/bytes/codec.hpp"

namespace nanocost::robust {

namespace {

constexpr char kMagic[8] = {'N', 'C', 'C', 'K', 'P', 'T', '0', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  if (std::ferror(f.get()) != 0) throw CheckpointCorrupt("cannot read " + path);
  out = std::move(bytes);
  return true;
}

void write_file_atomically(const std::string& path, std::span<const std::uint8_t> bytes,
                           const char* noun) {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
      throw std::runtime_error(std::string("cannot open ") + noun + " temp file " + tmp);
    }
    if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size() ||
        std::fflush(f.get()) != 0) {
      throw std::runtime_error(std::string("failed writing ") + noun + " " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error(std::string("cannot rename ") + noun + " into place: " + path);
  }
}

std::int64_t Checkpoint::completed_chunks() const noexcept {
  std::int64_t n = 0;
  for (const auto& blob : chunks) {
    if (!blob.empty()) ++n;
  }
  return n;
}

std::size_t save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  bytes::ByteWriter w;
  w.magic(kMagic);
  w.u64(ckpt.fingerprint);
  w.i64(ckpt.unit_count);
  w.i64(ckpt.grain);
  w.i64(ckpt.completed_chunks());
  for (std::size_t c = 0; c < ckpt.chunks.size(); ++c) {
    if (ckpt.chunks[c].empty()) continue;
    w.i64(static_cast<std::int64_t>(c));
    w.sealed(ckpt.chunks[c]);
  }
  write_file_atomically(path, w.view(), "checkpoint");
  return w.size();
}

bool load_checkpoint(const std::string& path, const Checkpoint& expected, Checkpoint& out) {
  std::vector<std::uint8_t> file;
  if (!read_file(path, file)) return false;

  // Saves are atomic (temp + rename), so damage here was never a valid
  // checkpoint.  The reader checks every record's declared size against
  // the bytes remaining before trusting it -- a bit-flipped length
  // field must not drive a huge allocation or a misaligned parse of
  // the following records.
  const std::string context = "checkpoint " + path;
  bytes::ByteReader<CheckpointCorrupt> r(file, context);
  r.magic<CheckpointMismatch>(kMagic);
  Checkpoint loaded;
  loaded.fingerprint = r.u64("header");
  loaded.unit_count = r.i64("header");
  loaded.grain = r.i64("header");
  const std::int64_t records = r.i64("header");
  if (loaded.fingerprint != expected.fingerprint ||
      loaded.unit_count != expected.unit_count || loaded.grain != expected.grain) {
    throw CheckpointMismatch(context +
                             " belongs to a different campaign (fingerprint/config mismatch)");
  }
  const std::int64_t n_chunks =
      loaded.grain > 0 ? (loaded.unit_count + loaded.grain - 1) / loaded.grain : 0;
  if (records < 0 || records > n_chunks) {
    r.fail("declares " + std::to_string(records) + " records for a " +
           std::to_string(n_chunks) + "-chunk campaign");
  }
  loaded.chunks.assign(static_cast<std::size_t>(n_chunks), {});

  std::string record_context;  // names the record in every diagnostic below
  for (std::int64_t rec = 0; rec < records; ++rec) {
    record_context = context + " record " + std::to_string(rec) + " is corrupt:";
    r.set_context(record_context);
    const std::int64_t chunk = r.i64("chunk index");
    if (chunk < 0 || chunk >= n_chunks) {
      r.fail("chunk index " + std::to_string(chunk) + " out of range [0, " +
             std::to_string(n_chunks) + ")");
    }
    const std::span<const std::uint8_t> blob = r.sealed("chunk blob");
    std::vector<std::uint8_t>& slot = loaded.chunks[static_cast<std::size_t>(chunk)];
    if (!slot.empty()) r.fail("duplicate record for chunk " + std::to_string(chunk));
    if (blob.empty()) r.fail("chunk " + std::to_string(chunk) + " has an empty blob");
    slot.assign(blob.begin(), blob.end());
  }
  r.set_context(context);
  r.expect_end();
  out = std::move(loaded);
  return true;
}

}  // namespace nanocost::robust
