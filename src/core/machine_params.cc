#include "machine_params.h"

#include "util/logging.h"

namespace ct::core {

namespace {

using P = AccessPattern;

/** Record a strided store curve 1Cy / 0Dy / 0Ry style entries. */
struct StrideSample
{
    std::uint32_t stride;
    util::MBps mbps;
};

void
setStoreCurve(ThroughputTable &t, TransferOp op,
              std::initializer_list<StrideSample> samples)
{
    for (const auto &s : samples) {
        P pat = P::strided(s.stride);
        switch (op) {
          case TransferOp::LocalCopy:
            t.set(localCopy(P::contiguous(), pat), s.mbps);
            break;
          case TransferOp::ReceiveStore:
            t.set(receiveStore(pat), s.mbps);
            break;
          case TransferOp::ReceiveDeposit:
            t.set(receiveDeposit(pat), s.mbps);
            break;
          default:
            util::panic("setStoreCurve: bad op");
        }
    }
}

void
setLoadCurve(ThroughputTable &t, TransferOp op,
             std::initializer_list<StrideSample> samples)
{
    for (const auto &s : samples) {
        P pat = P::strided(s.stride);
        switch (op) {
          case TransferOp::LocalCopy:
            t.set(localCopy(pat, P::contiguous()), s.mbps);
            break;
          case TransferOp::LoadSend:
            t.set(loadSend(pat), s.mbps);
            break;
          case TransferOp::FetchSend:
            t.set(fetchSend(pat), s.mbps);
            break;
          default:
            util::panic("setLoadCurve: bad op");
        }
    }
}

ThroughputTable
t3dTable()
{
    ThroughputTable t;
    t.setMachineName("T3D");

    // Table 1 anchors plus Figure 4 / Table 5 consistent fill-ins.
    // Strided stores benefit from the write-back queue; strided loads
    // lose the read-ahead stream and fall to single-word rates.
    setStoreCurve(t, TransferOp::LocalCopy,
                  {{1, 93.0},
                   {2, 80.0},
                   {4, 75.0},
                   {8, 72.0},
                   {16, 70.8},
                   {32, 69.0},
                   {64, 67.9}});
    setLoadCurve(t, TransferOp::LocalCopy,
                 {{2, 48.0},
                  {4, 40.0},
                  {8, 36.0},
                  {16, 34.4},
                  {32, 33.8},
                  {64, 33.3}});
    t.set(localCopy(P::contiguous(), P::indexed()), 38.5);
    t.set(localCopy(P::indexed(), P::contiguous()), 32.9);

    // Table 2: sends go through the memory-mapped annex port.
    setLoadCurve(t, TransferOp::LoadSend,
                 {{1, 126.0},
                  {2, 95.0},
                  {4, 70.0},
                  {8, 52.0},
                  {16, 41.0},
                  {32, 37.0},
                  {64, 35.0}});
    t.set(loadSend(P::indexed()), 32.0);

    // Table 3: the annex deposit engine handles every pattern; plain
    // receive-store does not exist (receives always run in the
    // background), hence no 0Ry entries.
    setStoreCurve(t, TransferOp::ReceiveDeposit,
                  {{1, 142.0},
                   {2, 110.0},
                   {4, 85.0},
                   {8, 65.0},
                   {16, 56.0},
                   {32, 53.0},
                   {64, 52.0}});
    t.set(receiveDeposit(P::indexed()), 52.0);

    // Table 4: network bandwidth vs congestion.
    t.setNetwork(TransferOp::NetData, 1, 142.0);
    t.setNetwork(TransferOp::NetData, 2, 69.0);
    t.setNetwork(TransferOp::NetData, 4, 35.0);
    t.setNetwork(TransferOp::NetAddrData, 1, 62.0);
    t.setNetwork(TransferOp::NetAddrData, 2, 38.0);
    t.setNetwork(TransferOp::NetAddrData, 4, 20.0);
    return t;
}

ThroughputTable
paragonTable()
{
    ThroughputTable t;
    t.setMachineName("Paragon");

    // Table 1 anchors; the i860 pre-fetch queue pipelines strided and
    // indexed loads, while write-through caching hurts strided stores.
    setStoreCurve(t, TransferOp::LocalCopy,
                  {{1, 67.6},
                   {2, 55.0},
                   {4, 45.0},
                   {8, 38.5},
                   {16, 34.8},
                   {32, 30.0},
                   {64, 27.6}});
    setLoadCurve(t, TransferOp::LocalCopy,
                 {{2, 60.0},
                  {4, 55.0},
                  {8, 52.0},
                  {16, 50.0},
                  {32, 36.0},
                  {64, 31.1}});
    t.set(localCopy(P::contiguous(), P::indexed()), 35.2);
    t.set(localCopy(P::indexed(), P::contiguous()), 45.1);

    // Table 2: processor sends via the bus-attached NI FIFO; the DMA
    // (line-transfer unit) reaches network speed for contiguous data.
    setLoadCurve(t, TransferOp::LoadSend,
                 {{1, 52.0},
                  {2, 48.0},
                  {4, 45.0},
                  {8, 43.0},
                  {16, 42.0},
                  {64, 42.0}});
    t.set(loadSend(P::indexed()), 36.0);
    t.set(fetchSend(P::contiguous()), 160.0);

    // Table 3: the co-processor drains the NI with any store pattern
    // (0Ry); the DMA deposits contiguous blocks only (0D1).
    setStoreCurve(t, TransferOp::ReceiveStore,
                  {{1, 82.0},
                   {2, 60.0},
                   {4, 48.0},
                   {8, 42.0},
                   {16, 40.0},
                   {32, 39.0},
                   {64, 38.0}});
    t.set(receiveStore(P::indexed()), 42.0);
    t.set(receiveDeposit(P::contiguous()), 160.0);

    // Table 4.
    t.setNetwork(TransferOp::NetData, 1, 176.0);
    t.setNetwork(TransferOp::NetData, 2, 90.0);
    t.setNetwork(TransferOp::NetData, 4, 44.0);
    t.setNetwork(TransferOp::NetAddrData, 1, 88.0);
    t.setNetwork(TransferOp::NetAddrData, 2, 45.0);
    t.setNetwork(TransferOp::NetAddrData, 4, 22.0);
    return t;
}

MachineCaps
capsOf(MachineId id)
{
    MachineCaps caps;
    caps.name = machineName(id);
    switch (id) {
      case MachineId::T3d:
        caps.hasFetchSend = false;
        caps.depositAnyPattern = true;
        caps.depositContiguous = true;
        caps.coProcReceive = false;
        caps.defaultCongestion = 2.0;
        // The DRAM write path sustains well above twice the fastest
        // end-to-end operation, so the constraint never binds (§3.4).
        caps.storeOnlyBandwidth = 120.0;
        caps.loadOnlyBandwidth = 320.0;
        caps.clockHz = 150e6;
        return caps;
      case MachineId::Paragon:
        caps.hasFetchSend = true;
        caps.depositAnyPattern = false;
        caps.depositContiguous = true;
        caps.coProcReceive = true;
        caps.defaultCongestion = 2.0;
        // Write-through caches: the store path saturates at 41.4
        // MB/s, which caps buffer packing at 20.7 MB/s per direction
        // when every node sends and receives at once (§5.1.3).
        caps.storeOnlyBandwidth = 41.4;
        caps.loadOnlyBandwidth = 83.0;
        caps.clockHz = 50e6;
        return caps;
    }
    util::panic("paperCaps: bad id");
}

} // namespace

std::string
machineName(MachineId id)
{
    switch (id) {
      case MachineId::T3d:
        return "T3D";
      case MachineId::Paragon:
        return "Paragon";
    }
    util::panic("machineName: bad id");
}

const ThroughputTable &
paperTable(MachineId id)
{
    switch (id) {
      case MachineId::T3d: {
        static const ThroughputTable table = t3dTable();
        return table;
      }
      case MachineId::Paragon: {
        static const ThroughputTable table = paragonTable();
        return table;
      }
    }
    util::panic("paperTable: bad id");
}

const MachineCaps &
paperCaps(MachineId id)
{
    switch (id) {
      case MachineId::T3d: {
        static const MachineCaps caps = capsOf(id);
        return caps;
      }
      case MachineId::Paragon: {
        static const MachineCaps caps = capsOf(id);
        return caps;
      }
    }
    util::panic("paperCaps: bad id");
}

} // namespace ct::core
