#include "hw/dma.hh"

#include "simcore/logging.hh"

namespace hw {

namespace {

/**
 * Walk a scatter list sector by sector, invoking fn(sectorIndex,
 * physAddrOfSectorStart).
 */
template <typename Fn>
void
forEachSector(const std::vector<SgEntry> &sg, std::uint32_t count,
              Fn &&fn)
{
    std::uint32_t sector = 0;
    for (const SgEntry &e : sg) {
        sim::panicIfNot(e.bytes % sim::kSectorSize == 0,
                        "SG element not sector-aligned: ", e.bytes);
        sim::Bytes off = 0;
        while (off < e.bytes && sector < count) {
            fn(sector, e.addr + off);
            off += sim::kSectorSize;
            ++sector;
        }
        if (sector >= count)
            break;
    }
    sim::panicIfNot(sector == count,
                    "SG list too short: covers ", sector, " of ", count,
                    " sectors");
}

} // namespace

void
dmaToMemory(PhysMem &mem, const std::vector<SgEntry> &sg,
            const DiskStore &store, sim::Lba lba, std::uint32_t count)
{
    forEachSector(sg, count, [&](std::uint32_t i, sim::Addr addr) {
        mem.write64(addr, store.tokenAt(lba + i));
    });
}

void
dmaFromMemory(PhysMem &mem, const std::vector<SgEntry> &sg,
              DiskStore &store, sim::Lba lba, std::uint32_t count)
{
    // Coalesce consecutive sectors sharing one content base so large
    // writes create single extents.
    std::uint64_t run_base = 0;
    sim::Lba run_start = 0;
    std::uint32_t run_len = 0;

    auto flush = [&]() {
        if (run_len > 0)
            store.write(run_start, run_len, run_base);
        run_len = 0;
    };

    forEachSector(sg, count, [&](std::uint32_t i, sim::Addr addr) {
        std::uint64_t token = mem.read64(addr);
        std::uint64_t base = baseFromToken(token, lba + i);
        if (run_len > 0 && base == run_base &&
            run_start + run_len == lba + i) {
            ++run_len;
        } else {
            flush();
            run_base = base;
            run_start = lba + i;
            run_len = 1;
        }
    });
    flush();
}

void
fillTokenBuffer(PhysMem &mem, sim::Addr addr, sim::Lba lba,
                std::uint32_t count, std::uint64_t base)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        mem.write64(addr + sim::Bytes(i) * sim::kSectorSize,
                    sectorToken(base, lba + i));
    }
}

std::uint64_t
bufferTokenAt(const PhysMem &mem, sim::Addr addr,
              std::uint32_t sector_index)
{
    return mem.read64(addr +
                      sim::Bytes(sector_index) * sim::kSectorSize);
}

} // namespace hw
