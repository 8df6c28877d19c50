#include "vm/page_mapper.hh"

#include <bit>

#include "common/log.hh"

namespace bear
{

std::uint64_t
PageMapper::allocateFrame()
{
    // Leaf entries store frame + 1 in 32 bits.
    bear_assert(next_frame_ < 0xFFFFFFFFULL,
                "physical frame pool exhausted after ", next_frame_,
                " frames");
    return next_frame_++;
}

PageMapper::Region *
PageMapper::regionOf(std::uint32_t process, std::uint64_t slot)
{
    if (process >= kRadixProcesses || slot >= kDirectorySlots)
        return nullptr;
    if (process >= spaces_.size())
        spaces_.resize(process + 1);
    Directory &dir = spaces_[process];
    if (slot >= dir.size()) {
        const std::size_t slots =
            std::bit_ceil(static_cast<std::size_t>(slot) + 1);
        const std::uint64_t bytes =
            directory_bytes_ + (slots - dir.size()) * sizeof(Region);
        if (bytes
            > kDirectoryBaseBytes + next_frame_ * kDirectoryBytesPerFrame)
            return nullptr;
        directory_bytes_ = bytes;
        dir.resize(slots);
    }
    return &dir[slot];
}

void
PageMapper::promote(std::uint32_t process, std::uint64_t slot, Region &r)
{
    r.leaf = std::make_unique<Leaf>();
    const std::uint64_t base = slot << kLeafBits;
    for (std::size_t i = 0; i < kLeafPages; ++i) {
        const auto it = hashed_.find(Key{process, base + i});
        if (it == hashed_.end())
            continue;
        (*r.leaf)[i] = static_cast<std::uint32_t>(it->second + 1);
        hashed_.erase(it);
    }
}

std::uint64_t
PageMapper::firstTouch(std::uint32_t process, std::uint64_t vpage)
{
    Region *r = regionOf(process, vpage >> kLeafBits);
    if (r && r->leaf) {
        std::uint32_t &entry = (*r->leaf)[vpage & (kLeafPages - 1)];
        entry = static_cast<std::uint32_t>(allocateFrame() + 1);
        return entry - 1;
    }
    const auto [it, inserted] = hashed_.try_emplace(Key{process, vpage}, 0);
    if (!inserted)
        return it->second;
    const std::uint64_t frame = allocateFrame();
    it->second = frame;
    if (r && ++r->hashed == kLeafPromotePages)
        promote(process, vpage >> kLeafBits, *r);
    return frame;
}

} // namespace bear
