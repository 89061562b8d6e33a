#include "serve/recovery/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "maddness/framing.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::recovery {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'C', 'K', 'P', '2'};
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".ssck";

std::string file_name(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", kPrefix,
                static_cast<unsigned long long>(version), kSuffix);
  return buf;
}

/// checkpoint-NNNNNN.ssck -> NNNNNN, or 0 when the name doesn't match.
std::uint64_t parse_version(const std::string& name) {
  const std::size_t plen = sizeof(kPrefix) - 1;
  const std::size_t slen = sizeof(kSuffix) - 1;
  if (name.size() <= plen + slen) return 0;
  if (name.compare(0, plen, kPrefix) != 0) return 0;
  if (name.compare(name.size() - slen, slen, kSuffix) != 0) return 0;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string encode(std::uint64_t version, const CheckpointState& st) {
  const std::string& blob = st.registry_blob;
  std::ostringstream payload;
  wire::put_u64(payload, st.next_request_id);
  wire::put_u64(payload, st.accepted_requests);
  wire::put_u64(payload, st.completed_requests);
  wire::put_u64(payload, st.tokens);
  wire::put_u64(payload, st.batches);
  wire::put_u64(payload, blob.size());
  payload.write(blob.data(), static_cast<std::streamsize>(blob.size()));

  std::ostringstream file;
  file.write(kMagic, 8);
  wire::put_u64(file, version);
  maddness::write_framed_blob(file, payload.str());
  return file.str();
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, FaultInjector* fault)
    : dir_(std::move(dir)), fault_(fault) {
  fs::create_directories(dir_);
  for (const std::uint64_t v : versions())
    next_version_ = std::max(next_version_, v + 1);
}

std::string CheckpointManager::path_of(std::uint64_t version) const {
  return (fs::path(dir_) / file_name(version)).string();
}

std::vector<std::uint64_t> CheckpointManager::versions() const {
  std::vector<std::uint64_t> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::uint64_t v = parse_version(entry.path().filename().string());
    if (v > 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t CheckpointManager::write(const CheckpointState& st) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t version = next_version_++;
  const std::string final_path = path_of(version);

  if (fault_) {
    const FaultAction act = fault_->poll(FaultSite::kCheckpointWrite);
    if (act.kind == FaultKind::kTornCheckpoint) {
      // Simulated crash on a non-atomic filesystem: the final name
      // exists but holds only half the bytes. load_latest() must skip
      // it via the CRC frame.
      const std::string bytes = encode(version, st);
      std::ofstream os(final_path, std::ios::binary);
      SSMA_CHECK_MSG(os.is_open(), "cannot open " << final_path);
      os.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
      return version;
    }
  }

  const std::string tmp_path = final_path + ".tmp";
  write_file(tmp_path, version, st);
  fs::rename(tmp_path, final_path);
  return version;
}

void CheckpointManager::write_file(const std::string& path,
                                   std::uint64_t version,
                                   const CheckpointState& st) {
  const std::string bytes = encode(version, st);
  std::ofstream os(path, std::ios::binary);
  SSMA_CHECK_MSG(os.is_open(), "cannot open " << path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SSMA_CHECK_MSG(os.good(), "checkpoint write failure: " << path);
}

CheckpointState CheckpointManager::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot open checkpoint " << path);
  char magic[8];
  is.read(magic, sizeof(magic));
  SSMA_CHECK_MSG(is.gcount() == 8 && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA checkpoint: " << path);
  wire::get_u64(is);  // version echo; the filename is authoritative
  std::istringstream payload(maddness::read_framed_blob(is));

  CheckpointState st;
  st.next_request_id = wire::get_u64(payload);
  st.accepted_requests = wire::get_u64(payload);
  st.completed_requests = wire::get_u64(payload);
  st.tokens = wire::get_u64(payload);
  st.batches = wire::get_u64(payload);
  std::string& blob = st.registry_blob;
  blob.resize(static_cast<std::size_t>(wire::get_u64(payload)));
  payload.read(blob.data(), static_cast<std::streamsize>(blob.size()));
  SSMA_CHECK_MSG(payload.gcount() ==
                     static_cast<std::streamsize>(blob.size()),
                 "checkpoint payload underflow: " << path);
  return st;
}

std::optional<CheckpointState> CheckpointManager::load_latest(
    std::uint64_t* version) const {
  std::vector<std::uint64_t> vs = versions();
  for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
    try {
      CheckpointState st = load_file(path_of(*it));
      if (version) *version = *it;
      return st;
    } catch (const CheckError&) {
      // Torn or corrupt version: fall back to the one before it.
    }
  }
  return std::nullopt;
}

}  // namespace ssma::serve::recovery
