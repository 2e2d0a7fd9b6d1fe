#include "src/format/serialize.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/util/check.h"
#include "src/util/crc32.h"

namespace spinfer {
namespace {

constexpr uint32_t kMatrixMagic = 0x4d425053u;  // 'SPBM'
constexpr uint32_t kBundleMagic = 0x42575053u;  // 'SPWB'
constexpr uint32_t kVersion = 1;

// Append/read helpers. The container is little-endian; on a big-endian host
// these would need byte swaps — checked at compile time below.
static_assert(std::endian::native == std::endian::little,
              "serializer assumes a little-endian host");

// resize + memcpy rather than vector::insert of a byte range: the same
// bytes, and GCC 12 does not misreport the copy as a -Wstringop-overflow.
template <typename T>
void AppendArray(std::vector<uint8_t>& out, const T* data, size_t count) {
  const size_t at = out.size();
  const size_t bytes = sizeof(T) * count;
  if (bytes == 0) {
    return;
  }
  out.resize(at + bytes);
  std::memcpy(out.data() + at, data, bytes);
}

template <typename T>
void Append(std::vector<uint8_t>& out, const T& v) {
  AppendArray(out, &v, 1);
}

// Cursor-based reader with bounds checking.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > size_) {
      return false;
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out, uint64_t count) {
    // Guard count * sizeof(T) overflow and truncation.
    if (count > (size_ - pos_) / sizeof(T)) {
      return false;
    }
    out->resize(count);
    std::memcpy(out->data(), data_ + pos_, sizeof(T) * count);
    pos_ += sizeof(T) * count;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Reads one named scalar field, reporting which field ran off the end of the
// buffer (and where) instead of a bare failure.
template <typename T>
bool ReadField(Reader& r, T* out, const char* field, std::string* error) {
  if (r.Read(out)) {
    return true;
  }
  if (error != nullptr) {
    *error = std::string("truncated container: field '") + field + "' needs " +
             std::to_string(sizeof(T)) + " bytes at offset " + std::to_string(r.pos()) +
             " but only " + std::to_string(r.remaining()) + " remain";
  }
  return false;
}

template <typename T>
bool ReadArrayField(Reader& r, std::vector<T>* out, uint64_t count, const char* field,
                    std::string* error) {
  if (r.ReadArray(out, count)) {
    return true;
  }
  if (error != nullptr) {
    *error = std::string("truncated container: array '") + field + "' declares " +
             std::to_string(count) + " elements (" +
             std::to_string(count * sizeof(T)) + " bytes) at offset " +
             std::to_string(r.pos()) + " but only " + std::to_string(r.remaining()) +
             " bytes remain";
  }
  return false;
}

void AppendMatrixBody(std::vector<uint8_t>& out, const TcaBmeMatrix& m) {
  Append(out, kMatrixMagic);
  Append(out, kVersion);
  Append(out, static_cast<int64_t>(m.rows()));
  Append(out, static_cast<int64_t>(m.cols()));
  Append(out, static_cast<int32_t>(m.config().gt_rows));
  Append(out, static_cast<int32_t>(m.config().gt_cols));
  Append(out, static_cast<int32_t>(m.config().value_align_halves));
  Append(out, static_cast<uint64_t>(m.gtile_offsets().size()));
  Append(out, static_cast<uint64_t>(m.bitmaps().size()));
  Append(out, static_cast<uint64_t>(m.values().size()));
  AppendArray(out, m.gtile_offsets().data(), m.gtile_offsets().size());
  AppendArray(out, m.bitmaps().data(), m.bitmaps().size());
  AppendArray(out, m.values().data(), m.values().size());
}

std::optional<TcaBmeMatrix> ReadMatrixBody(Reader& r, std::string* error) {
  uint32_t magic = 0;
  if (!ReadField(r, &magic, "matrix magic", error)) {
    return std::nullopt;
  }
  if (magic != kMatrixMagic) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "bad matrix magic 0x%08x (expected 0x%08x 'SPBM')", magic,
                    kMatrixMagic);
      *error = buf;
    }
    return std::nullopt;
  }
  uint32_t version = 0;
  if (!ReadField(r, &version, "matrix version", error)) {
    return std::nullopt;
  }
  if (version != kVersion) {
    if (error != nullptr) {
      *error = "unsupported matrix version " + std::to_string(version) +
               " (this build reads version " + std::to_string(kVersion) + ")";
    }
    return std::nullopt;
  }
  int64_t rows = 0;
  int64_t cols = 0;
  int32_t gt_rows = 0;
  int32_t gt_cols = 0;
  int32_t align = 0;
  uint64_t n_offsets = 0;
  uint64_t n_bitmaps = 0;
  uint64_t n_values = 0;
  if (!ReadField(r, &rows, "rows", error) || !ReadField(r, &cols, "cols", error) ||
      !ReadField(r, &gt_rows, "gt_rows", error) ||
      !ReadField(r, &gt_cols, "gt_cols", error) ||
      !ReadField(r, &align, "value_align_halves", error) ||
      !ReadField(r, &n_offsets, "gtile_offsets count", error) ||
      !ReadField(r, &n_bitmaps, "bitmaps count", error) ||
      !ReadField(r, &n_values, "values count", error)) {
    return std::nullopt;
  }
  std::vector<uint32_t> offsets;
  std::vector<uint64_t> bitmaps;
  std::vector<Half> values;
  if (!ReadArrayField(r, &offsets, n_offsets, "gtile_offsets", error) ||
      !ReadArrayField(r, &bitmaps, n_bitmaps, "bitmaps", error) ||
      !ReadArrayField(r, &values, n_values, "values", error)) {
    return std::nullopt;
  }
  TcaBmeConfig cfg;
  cfg.gt_rows = gt_rows;
  cfg.gt_cols = gt_cols;
  cfg.value_align_halves = align;
  return TcaBmeMatrix::FromParts(rows, cols, cfg, std::move(offsets),
                                 std::move(bitmaps), std::move(values), error);
}

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open for writing: " + path;
    }
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok && error != nullptr) {
    *error = "short write: " + path;
  }
  return ok;
}

std::optional<std::vector<uint8_t>> ReadFile(const std::string& path,
                                             std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open for reading: " + path;
    }
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const bool ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) {
    if (error != nullptr) {
      *error = "short read: " + path;
    }
    return std::nullopt;
  }
  return bytes;
}

void AppendCrc(std::vector<uint8_t>& out) {
  const uint32_t crc = Crc32(out.data(), out.size());
  Append(out, crc);
}

// Verifies and strips the trailing CRC; returns the payload size.
bool CheckCrc(const std::vector<uint8_t>& bytes, size_t* payload_size,
              std::string* error) {
  if (bytes.size() < sizeof(uint32_t)) {
    if (error != nullptr) {
      *error = "container too small";
    }
    return false;
  }
  const size_t payload = bytes.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
  if (Crc32(bytes.data(), payload) != stored) {
    if (error != nullptr) {
      *error = "CRC mismatch (corrupted container)";
    }
    return false;
  }
  *payload_size = payload;
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeTcaBme(const TcaBmeMatrix& m) {
  std::vector<uint8_t> out;
  out.reserve(m.StorageBytes() + 64);
  AppendMatrixBody(out, m);
  AppendCrc(out);
  return out;
}

std::optional<TcaBmeMatrix> DeserializeTcaBme(const std::vector<uint8_t>& bytes,
                                              std::string* error) {
  size_t payload = 0;
  if (!CheckCrc(bytes, &payload, error)) {
    return std::nullopt;
  }
  Reader r(bytes.data(), payload);
  return ReadMatrixBody(r, error);
}

bool SaveTcaBme(const std::string& path, const TcaBmeMatrix& m, std::string* error) {
  return WriteFile(path, SerializeTcaBme(m), error);
}

std::optional<TcaBmeMatrix> LoadTcaBme(const std::string& path, std::string* error) {
  const auto bytes = ReadFile(path, error);
  if (!bytes) {
    return std::nullopt;
  }
  return DeserializeTcaBme(*bytes, error);
}

void WeightBundle::Add(const std::string& name, TcaBmeMatrix m) {
  layers_.insert_or_assign(name, std::move(m));
}

const TcaBmeMatrix* WeightBundle::Find(const std::string& name) const {
  const auto it = layers_.find(name);
  return it == layers_.end() ? nullptr : &it->second;
}

std::vector<std::string> WeightBundle::Names() const {
  std::vector<std::string> names;
  names.reserve(layers_.size());
  for (const auto& [name, m] : layers_) {
    names.push_back(name);
  }
  return names;
}

uint64_t WeightBundle::TotalStorageBytes() const {
  uint64_t total = 0;
  for (const auto& [name, m] : layers_) {
    total += m.StorageBytes();
  }
  return total;
}

std::vector<uint8_t> WeightBundle::Serialize() const {
  std::vector<uint8_t> out;
  Append(out, kBundleMagic);
  Append(out, kVersion);
  Append(out, static_cast<uint64_t>(layers_.size()));
  for (const auto& [name, m] : layers_) {
    Append(out, static_cast<uint64_t>(name.size()));
    AppendArray(out, name.data(), name.size());
    AppendMatrixBody(out, m);
  }
  AppendCrc(out);
  return out;
}

std::optional<WeightBundle> WeightBundle::Deserialize(const std::vector<uint8_t>& bytes,
                                                      std::string* error) {
  size_t payload = 0;
  if (!CheckCrc(bytes, &payload, error)) {
    return std::nullopt;
  }
  Reader r(bytes.data(), payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  if (!ReadField(r, &magic, "bundle magic", error)) {
    return std::nullopt;
  }
  if (magic != kBundleMagic) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "bad bundle magic 0x%08x (expected 0x%08x 'SPWB')", magic,
                    kBundleMagic);
      *error = buf;
    }
    return std::nullopt;
  }
  if (!ReadField(r, &version, "bundle version", error)) {
    return std::nullopt;
  }
  if (version != kVersion) {
    if (error != nullptr) {
      *error = "unsupported bundle version " + std::to_string(version) +
               " (this build reads version " + std::to_string(kVersion) + ")";
    }
    return std::nullopt;
  }
  if (!ReadField(r, &count, "layer count", error)) {
    return std::nullopt;
  }
  WeightBundle bundle;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!ReadField(r, &name_len, "layer name length", error)) {
      return std::nullopt;
    }
    std::vector<char> name_buf;
    if (!ReadArrayField(r, &name_buf, name_len, "layer name", error)) {
      return std::nullopt;
    }
    auto m = ReadMatrixBody(r, error);
    if (!m) {
      if (error != nullptr) {
        *error = "layer " + std::to_string(i) + " ('" +
                 std::string(name_buf.begin(), name_buf.end()) + "'): " + *error;
      }
      return std::nullopt;
    }
    bundle.Add(std::string(name_buf.begin(), name_buf.end()), std::move(*m));
  }
  return bundle;
}

bool WeightBundle::Save(const std::string& path, std::string* error) const {
  return WriteFile(path, Serialize(), error);
}

std::optional<WeightBundle> WeightBundle::Load(const std::string& path,
                                               std::string* error) {
  const auto bytes = ReadFile(path, error);
  if (!bytes) {
    return std::nullopt;
  }
  return Deserialize(*bytes, error);
}

}  // namespace spinfer
