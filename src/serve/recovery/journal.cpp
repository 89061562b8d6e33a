#include "serve/recovery/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_set>

#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::recovery {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'J', 'N', 'L', '1'};
// Record types. Type 1 was the model-less accept record of pre-registry
// journals; it is no longer written, and read() rejects it as unknown.
constexpr std::uint8_t kCompleted = 2;
constexpr std::uint8_t kAccepted = 3;  ///< model-tagged accept
/// Compaction marker: the first frame of a compacted file, carrying the
/// (base_seq, base_bytes) the pruned prefix occupied. Not a record — it
/// has no sequence number and is skipped by read().
constexpr std::uint8_t kCompacted = 4;

/// Marker payload: type byte + base_seq + base_bytes.
std::string encode_marker(std::uint64_t base_seq,
                          std::uint64_t base_bytes) {
  std::ostringstream payload;
  wire::put_u8(payload, kCompacted);
  wire::put_u64(payload, base_seq);
  wire::put_u64(payload, base_bytes);
  return payload.str();
}

bool parse_marker(const std::string& payload, std::uint64_t* base_seq,
                  std::uint64_t* base_bytes) {
  if (payload.size() != 17 ||
      static_cast<std::uint8_t>(payload[0]) != kCompacted)
    return false;
  std::istringstream body(payload);
  wire::get_u8(body);
  *base_seq = wire::get_u64(body);
  *base_bytes = wire::get_u64(body);
  return true;
}

}  // namespace

RequestJournal::RequestJournal(const std::string& path) : path_(path) {
  // Append mode keeps an existing journal's history (a recovered server
  // keeps journaling into the same log); a fresh file gets the magic.
  // A file torn inside the magic itself (crash during creation — no
  // record can precede it) is rewritten from scratch; a full 8 bytes of
  // something else is a foreign file we refuse to clobber.
  char probe_magic[8];
  std::streamsize have = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe.is_open()) {
      probe.read(probe_magic, sizeof(probe_magic));
      have = probe.gcount();
    }
  }
  const bool prefix_ok =
      std::equal(probe_magic, probe_magic + have, kMagic);
  SSMA_CHECK_MSG(prefix_ok || have < 8,
                 "not an SSMA journal: " << path);
  const bool fresh = have < 8;
  if (!fresh) {
    // Seed the sequence counter from the existing records so a
    // recovered leader keeps handing out file positions a resuming
    // follower can trust. A torn tail — the half-written record of the
    // crash itself — is not a record: truncate the file back to the
    // last whole frame before reopening for append. (Append mode would
    // otherwise write new records AFTER the torn bytes; readers stop at
    // the first bad frame, so every post-restart record would be
    // invisible to recovery and a resuming follower could never stream
    // past the tear.)
    std::streampos last_good;
    std::streampos end;
    {
      std::ifstream is(path, std::ios::binary);
      is.ignore(8);
      std::string payload;
      last_good = is.tellg();
      bool first = true;
      while (maddness::try_read_framed_blob(is, &payload)) {
        if (first) {
          first = false;
          std::uint64_t bs = 0, bb = 0;
          // A compacted file leads with its marker frame: adopt the
          // base so sequence numbers and virtual offsets continue the
          // pre-compaction addressing.
          if (parse_marker(payload, &bs, &bb)) {
            base_seq_ = bs;
            base_bytes_ = bb;
            seq_ = bs;
            header_bytes_ = static_cast<std::uint64_t>(is.tellg());
            generation_ = 1;
            last_good = is.tellg();
            continue;
          }
        }
        ++seq_;
        last_good = is.tellg();
      }
      is.clear();
      is.seekg(0, std::ios::end);
      end = is.tellg();
    }
    if (end > last_good)
      std::filesystem::resize_file(
          path, static_cast<std::uintmax_t>(
                    static_cast<std::streamoff>(last_good)));
    bytes_ = base_bytes_ +
             (static_cast<std::uint64_t>(last_good) - header_bytes_);
  }
  os_.open(path, fresh ? std::ios::binary | std::ios::trunc
                       : std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot open journal " << path);
  if (fresh) {
    os_.write(kMagic, sizeof(kMagic));
    os_.flush();
    bytes_ = 8;
  }
}

std::uint64_t RequestJournal::append_record(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  maddness::write_framed_blob(os_, payload);
  // Flush every record: the journal is only useful if it survives the
  // crash it exists to cover. (OS-level fsync durability is out of
  // scope for the in-process model; flush makes records visible to a
  // same-host reader immediately.)
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  const std::uint64_t seq = ++seq_;
  bytes_ += 12 + payload.size();  // frame = len(8) + crc(4) + payload
  if (hook_) hook_(seq, bytes_);
  return seq;
}

std::uint64_t RequestJournal::append_raw(const std::string& payload) {
  return append_record(payload);
}

std::uint64_t RequestJournal::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::uint64_t RequestJournal::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

RequestJournal::CompactionInfo RequestJournal::compaction_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {base_seq_, base_bytes_, header_bytes_, generation_};
}

std::uint64_t RequestJournal::compact(std::uint64_t max_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t bound = std::min(max_seq, seq_);
  if (bound <= base_seq_) return 0;
  os_.flush();

  // Pass 1: the ids with a completion record ANYWHERE in the journal
  // (a prefix record's ack may live past the prune point; pruning the
  // accept but keeping the ack is fine — read() tolerates an ack with
  // no accept), and the record count.
  std::unordered_set<std::uint64_t> completed;
  std::uint64_t records = 0;
  std::string payload;
  {
    std::ifstream is(path_, std::ios::binary);
    SSMA_CHECK_MSG(is.is_open(), "cannot reopen journal " << path_);
    is.ignore(static_cast<std::streamsize>(header_bytes_));
    while (maddness::try_read_framed_blob(is, &payload)) {
      ++records;
      ParsedRecord rec;
      if (parse_record(payload, &rec) && !rec.is_accepted)
        completed.insert(rec.completed_id);
    }
  }
  SSMA_CHECK_MSG(records == seq_ - base_seq_,
                 "journal " << path_ << " holds " << records
                            << " records, expected " << seq_ - base_seq_);

  // Pass 2: skip the longest fully-acknowledged prefix ending at or
  // before the bound, then copy every surviving frame behind magic +
  // marker into a temp file that is renamed over the original — a
  // crash leaves old or new, never a mix.
  std::uint64_t new_base = base_seq_;
  std::uint64_t new_base_bytes = base_bytes_;
  std::ifstream is(path_, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot reopen journal " << path_);
  is.ignore(static_cast<std::streamsize>(header_bytes_));
  bool have = maddness::try_read_framed_blob(is, &payload);
  while (have && new_base < bound) {
    ParsedRecord rec;
    SSMA_CHECK_MSG(parse_record(payload, &rec),
                   "unparsable journal record " << new_base + 1 << " in "
                                                << path_);
    if (rec.is_accepted && !completed.count(rec.accepted.id)) break;
    ++new_base;
    new_base_bytes += 12 + payload.size();
    have = maddness::try_read_framed_blob(is, &payload);
  }
  if (new_base <= base_seq_) return 0;
  const std::uint64_t pruned = new_base - base_seq_;

  const std::string marker = encode_marker(new_base, new_base_bytes);
  const std::string tmp = path_ + ".compact";
  {
    std::ofstream ns(tmp, std::ios::binary | std::ios::trunc);
    SSMA_CHECK_MSG(ns.is_open(), "cannot open " << tmp);
    ns.write(kMagic, sizeof(kMagic));
    maddness::write_framed_blob(ns, marker);
    for (; have; have = maddness::try_read_framed_blob(is, &payload))
      maddness::write_framed_blob(ns, payload);
    ns.flush();
    SSMA_CHECK_MSG(ns.good(), "compaction write failure on " << tmp);
  }
  os_.close();
  std::filesystem::rename(tmp, path_);
  os_.open(path_, std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot reopen journal " << path_);
  base_seq_ = new_base;
  base_bytes_ = new_base_bytes;
  header_bytes_ = 8 + 12 + marker.size();
  ++generation_;
  // seq_/bytes_ are virtual and unchanged: appends, the commit hook and
  // the replication handshake keep their pre-compaction addressing.
  return pruned;
}

void RequestJournal::adopt_base(std::uint64_t base_seq,
                                std::uint64_t base_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  SSMA_CHECK_MSG(seq_ == 0 && base_seq_ == 0,
                 "adopt_base on non-empty journal " << path_
                                                    << " (durable seq "
                                                    << seq_ << ")");
  SSMA_CHECK(base_seq >= 1 && base_bytes >= 8);
  const std::string marker = encode_marker(base_seq, base_bytes);
  maddness::write_framed_blob(os_, marker);
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  base_seq_ = base_seq;
  base_bytes_ = base_bytes;
  seq_ = base_seq;
  bytes_ = base_bytes;
  header_bytes_ = 8 + 12 + marker.size();
  ++generation_;
}

void RequestJournal::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

std::uint64_t RequestJournal::append_accepted(
    std::uint64_t id, const std::string& model,
    std::uint64_t model_version, std::size_t rows,
    const std::vector<std::uint8_t>& codes) {
  std::ostringstream payload;
  wire::put_u8(payload, kAccepted);
  wire::put_u64(payload, id);
  wire::put_u64(payload, model.size());
  payload.write(model.data(),
                static_cast<std::streamsize>(model.size()));
  wire::put_u64(payload, model_version);
  wire::put_u64(payload, rows);
  wire::put_u64(payload, codes.size());
  payload.write(reinterpret_cast<const char*>(codes.data()),
                static_cast<std::streamsize>(codes.size()));
  return append_record(payload.str());
}

std::uint64_t RequestJournal::append_completed(std::uint64_t id,
                                               int worker_id,
                                               std::uint32_t output_crc) {
  std::ostringstream payload;
  wire::put_u8(payload, kCompleted);
  wire::put_u64(payload, id);
  wire::put_u32(payload, static_cast<std::uint32_t>(worker_id));
  wire::put_u32(payload, output_crc);
  return append_record(payload.str());
}

bool RequestJournal::parse_record(const std::string& payload,
                                  ParsedRecord* out) {
  std::istringstream body(payload);
  try {
    const std::uint8_t type = wire::get_u8(body);
    if (type == kAccepted) {
      out->is_accepted = true;
      AcceptedRecord& rec = out->accepted;
      rec.id = wire::get_u64(body);
      rec.model.resize(static_cast<std::size_t>(wire::get_u64(body)));
      body.read(rec.model.data(),
                static_cast<std::streamsize>(rec.model.size()));
      if (body.gcount() != static_cast<std::streamsize>(rec.model.size()))
        return false;
      rec.model_version = wire::get_u64(body);
      rec.rows = static_cast<std::size_t>(wire::get_u64(body));
      rec.codes.resize(static_cast<std::size_t>(wire::get_u64(body)));
      body.read(reinterpret_cast<char*>(rec.codes.data()),
                static_cast<std::streamsize>(rec.codes.size()));
      return body.gcount() ==
             static_cast<std::streamsize>(rec.codes.size());
    }
    if (type == kCompleted) {
      out->is_accepted = false;
      out->completed_id = wire::get_u64(body);
      wire::get_u32(body);  // worker id: informational only
      out->completed_crc = wire::get_u32(body);
      return body.good() || body.eof();
    }
  } catch (const std::exception&) {
    return false;  // wire::get_* underflow on a truncated payload
  }
  return false;  // unknown record type
}

JournalReplay RequestJournal::read(const std::string& path) {
  JournalReplay replay;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return replay;
  char magic[8];
  is.read(magic, sizeof(magic));
  if (is.gcount() == 0) return replay;  // empty file
  SSMA_CHECK_MSG(is.gcount() == 8 && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA journal: " << path);

  std::vector<AcceptedRecord> accepted;
  std::string payload;
  bool first = true;
  for (;;) {
    const std::streampos frame_start = is.tellg();
    if (!maddness::try_read_framed_blob(is, &payload)) {
      // Distinguish clean EOF from a torn tail: bytes existed past the
      // last whole record but didn't parse as a valid frame.
      is.clear();
      is.seekg(0, std::ios::end);
      replay.torn_tail = frame_start >= 0 && is.tellg() > frame_start;
      break;
    }
    if (first) {
      first = false;
      std::uint64_t bs = 0, bb = 0;
      if (parse_marker(payload, &bs, &bb)) {
        replay.compacted_through = bs;
        continue;
      }
    }
    ParsedRecord rec;
    SSMA_CHECK_MSG(parse_record(payload, &rec),
                   "unknown journal record type "
                       << (payload.empty()
                               ? -1
                               : static_cast<int>(
                                     static_cast<std::uint8_t>(payload[0])))
                       << " (or truncated fields) in " << path);
    if (rec.is_accepted) {
      replay.accepted++;
      replay.max_id = std::max(replay.max_id, rec.accepted.id);
      accepted.push_back(std::move(rec.accepted));
    } else {
      replay.completed++;
      replay.max_id = std::max(replay.max_id, rec.completed_id);
      replay.completed_crc[rec.completed_id] = rec.completed_crc;
    }
  }

  for (AcceptedRecord& rec : accepted)
    if (replay.completed_crc.find(rec.id) == replay.completed_crc.end())
      replay.unacknowledged.push_back(std::move(rec));
  return replay;
}

}  // namespace ssma::serve::recovery
