#include "smartdimm/tls_dsa.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "crypto/tls_record.h"

namespace sd::smartdimm {

TlsMessageState::TlsMessageState(const std::uint8_t key[16],
                                 const crypto::GcmIv &iv,
                                 std::size_t message_len,
                                 Cycles line_latency, DsaStats *stats)
    : ctx_(key, crypto::Aes::KeySize::k128),
      gcm_(ctx_, iv, message_len), message_len_(message_len),
      line_latency_(line_latency), stats_(stats)
{
}

Cycles
TlsMessageState::processLine(std::size_t index, const std::uint8_t *in,
                             std::uint8_t *out)
{
    gcm_.processLine(index, in, out);
    if (stats_) {
        ++stats_->tls_lines;
        stats_->tls_busy_cycles += line_latency_;
        if (gcm_.complete())
            ++stats_->tls_messages;
    }
    return line_latency_;
}

TlsDsaJob::TlsDsaJob(std::shared_ptr<TlsMessageState> state,
                     std::size_t page_index)
    : state_(std::move(state)), page_index_(page_index)
{
    const std::size_t msg_len = state_->messageLen();
    const std::size_t page_start = page_index_ * kPageSize;
    SD_ASSERT(page_start < msg_len + crypto::kTlsTagSize,
              "TLS page beyond record");
    page_payload_ = page_start < msg_len
                        ? std::min(kPageSize, msg_len - page_start)
                        : 0;
    payload_lines_ = divCeil(page_payload_, kCacheLineSize);

    // The trailer tag occupies bytes [message_len, message_len + 16)
    // of the record and may straddle two destination pages.
    holds_tag_ = msg_len < page_start + kPageSize;
    if (holds_tag_) {
        tag_begin_ = std::max(msg_len, page_start) - page_start;
        tag_end_ = std::min(msg_len + crypto::kTlsTagSize,
                            page_start + kPageSize) -
                   page_start;
    }

    result_.assign(kPageSize, 0);

    // A tag-only page (the record ends at or just before a page
    // boundary) has no payload lines; its tag line becomes ready when
    // the message completes, checked lazily in readyMask().
}

Cycles
TlsDsaJob::processLine(unsigned line, const std::uint8_t *data)
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (line >= payload_lines_)
        return 0; // padding line of the trailer region: nothing to do

    const std::size_t global_line =
        page_index_ * kLinesPerPage + line;
    const Cycles busy = state_->processLine(
        global_line, data, result_.data() + line * kCacheLineSize);
    // A line that also carries tag bytes waits for the whole message.
    ready_ |= (std::uint64_t{1} << line) & ~tagMask();
    ++lines_done_;
    if (state_->complete() && holds_tag_)
        placeTag();
    return busy;
}

bool
TlsDsaJob::complete() const
{
    return lines_done_ >= payload_lines_;
}

void
TlsDsaJob::placeTag() const
{
    // The tag is final once the message completes: compute it once,
    // not on every readyMask() that follows.
    if (ready_ & tagMask())
        return;
    const crypto::GcmTag tag = state_->finalTag();
    const std::size_t tag_skip =
        page_index_ * kPageSize + tag_begin_ - state_->messageLen();
    std::memcpy(result_.data() + tag_begin_, tag.data() + tag_skip,
                tag_end_ - tag_begin_);
    ready_ |= tagMask();
}

std::uint64_t
TlsDsaJob::tagMask() const
{
    if (!holds_tag_)
        return 0;
    const std::size_t first = tag_begin_ / kCacheLineSize;
    const std::size_t last = (tag_end_ - 1) / kCacheLineSize;
    return (~std::uint64_t{0} >> (kLinesPerPage - 1 - last)) &
           (~std::uint64_t{0} << first);
}

std::uint64_t
TlsDsaJob::trailerMask() const
{
    return payload_lines_ >= kLinesPerPage
               ? 0
               : ~std::uint64_t{0} << payload_lines_;
}

std::uint64_t
TlsDsaJob::readyMask() const
{
    // Only the page holding (part of) the tag has a trailer; its tag
    // line(s) and padding wait for the whole message.
    if (holds_tag_ && state_->complete()) {
        placeTag();
        return ready_ | trailerMask();
    }
    return ready_;
}

bool
TlsDsaJob::resultLine(unsigned line, std::uint8_t *out) const
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (!(readyMask() & (std::uint64_t{1} << line)))
        return false;
    std::memcpy(out, result_.data() + line * kCacheLineSize,
                kCacheLineSize);
    return true;
}

std::size_t
TlsDsaJob::resultBytes() const
{
    return holds_tag_ ? tag_end_ : page_payload_;
}

} // namespace sd::smartdimm
