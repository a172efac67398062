#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/parser.h"
#include "core/style_registry.h"
#include "core/transfer_program.h"

namespace {

using namespace ct::core;
using P = AccessPattern;

TransferProgram
program(MachineId id, Style style, P x, P y)
{
    auto p = buildProgram(id, style, x, y);
    EXPECT_TRUE(p.has_value());
    return p ? *p : TransferProgram{};
}

// ---------------------------------------------------------------------
// The registry carries the four built-in styles in planner order.
// ---------------------------------------------------------------------

TEST(StyleRegistry, BuiltinsRegisteredInOrder)
{
    const auto &styles = styleRegistry();
    ASSERT_GE(styles.size(), 4u);
    EXPECT_EQ(styles[0].key, "dma-direct");
    EXPECT_EQ(styles[1].key, "chained");
    EXPECT_EQ(styles[2].key, "buffer-packing");
    EXPECT_EQ(styles[3].key, "pvm");
}

TEST(StyleRegistry, LookupByEnumAndKeyAgree)
{
    for (Style style : {Style::BufferPacking, Style::Chained,
                        Style::Pvm, Style::DmaDirect}) {
        const StyleInfo *byEnum = findStyle(style);
        ASSERT_NE(byEnum, nullptr);
        const StyleInfo *byKey = findStyle(byEnum->key);
        EXPECT_EQ(byEnum, byKey);
        EXPECT_EQ(styleName(style), byEnum->key);
    }
}

TEST(StyleRegistry, BuildByKeyMatchesBuildByEnum)
{
    auto byEnum = buildProgram(MachineId::T3d, Style::Chained,
                               P::indexed(), P::indexed());
    auto byKey = buildProgram(MachineId::T3d, "chained", P::indexed(),
                              P::indexed());
    ASSERT_TRUE(byEnum && byKey);
    EXPECT_EQ(byEnum->format(), byKey->format());
    EXPECT_EQ(byEnum->stages.size(), byKey->stages.size());
}

// ---------------------------------------------------------------------
// The stage list renders the paper's formulas, and the rendering
// round-trips through the parser.
// ---------------------------------------------------------------------

TEST(TransferProgram, PinnedFormulas)
{
    EXPECT_EQ(program(MachineId::T3d, Style::Chained, P::indexed(),
                      P::indexed())
                  .format(),
              "wS0 || Nadp || 0Dw");
    EXPECT_EQ(program(MachineId::T3d, Style::BufferPacking,
                      P::strided(16), P::contiguous())
                  .format(),
              "16C1 o (1S0 || Nd || 0D1) o 1C1");
    EXPECT_EQ(program(MachineId::Paragon, Style::DmaDirect,
                      P::contiguous(), P::contiguous())
                  .format(),
              "1F0 || Nd || 0D1");
}

TEST(TransferProgram, FormatParsesBack)
{
    const std::vector<P> patterns = {P::contiguous(), P::strided(16),
                                     P::strided(64), P::indexed()};
    for (MachineId id : {MachineId::T3d, MachineId::Paragon}) {
        for (const StyleInfo &info : styleRegistry()) {
            for (const P &x : patterns) {
                for (const P &y : patterns) {
                    auto p = buildProgram(id, info.key, x, y);
                    if (!p)
                        continue;
                    std::string text = p->format();
                    auto parsed = parse(text);
                    auto *expr = std::get_if<ExprPtr>(&parsed);
                    ASSERT_NE(expr, nullptr) << text;
                    EXPECT_EQ((*expr)->format(), text) << info.key;
                    EXPECT_FALSE(p->validate().has_value())
                        << info.key << " " << text;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The stage rater and the formula evaluator agree bit for bit: every
// style, both machines, the storm workload's twelve patterns on each
// side, at several congestions.
// ---------------------------------------------------------------------

TEST(TransferProgram, StageRateEqualsFormulaRate)
{
    std::vector<P> patterns;
    for (const char *label : {"1", "2", "3", "4", "8", "16", "32", "64",
                              "256", "1024", "w", "16.2"})
        patterns.push_back(*P::parse(label));
    int rated = 0;
    for (MachineId id : {MachineId::T3d, MachineId::Paragon}) {
        const AnalyticBackend &backend = paperBackend(id);
        for (const StyleInfo &info : styleRegistry()) {
            for (const P &x : patterns) {
                for (const P &y : patterns) {
                    auto p = buildProgram(info, id, x, y);
                    if (!p)
                        continue;
                    EXPECT_FALSE(p->validate().has_value())
                        << info.key << " " << p->format();
                    ExprPtr formula = parseOrDie(p->format());
                    for (double c : {1.0, 2.0, 3.0, 5.0}) {
                        EXPECT_EQ(backend.rate(*p, c),
                                  evaluate(formula, {&backend.table(), c,
                                                     p->constraints}))
                            << info.key << " " << p->format() << " @"
                            << c;
                        ++rated;
                    }
                }
            }
        }
    }
    EXPECT_GT(rated, 0);
}

// ---------------------------------------------------------------------
// Every build checks the pattern handoffs, so a style whose stages do
// not fit together is refused where it is built.
// ---------------------------------------------------------------------

/** A packing-like program whose copy writes contiguously into a leg
 *  that reads stride 16. */
std::optional<TransferProgram>
buildMismatched(MachineId id, P x, P y)
{
    TransferProgram p;
    p.style = Style::Custom;
    p.styleKey = "copy-into-strided-leg";
    p.machine = id;
    p.x = x;
    p.y = y;
    p.stages = {{localCopy(x, P::contiguous()), StageResource::SenderCpu,
                 BufferBinding::SourceArray, BufferBinding::PackBuffer},
                {loadSend(P::strided(16)), StageResource::SenderCpu,
                 BufferBinding::PackBuffer, BufferBinding::NetworkPort},
                {netData(), StageResource::Wire,
                 BufferBinding::NetworkPort, BufferBinding::NetworkPort},
                {receiveDeposit(y), StageResource::ReceiverEngine,
                 BufferBinding::NetworkPort, BufferBinding::DestArray}};
    return p;
}

TEST(StyleRegistryDeath, BuildRefusesPatternMismatch)
{
    // Registered inside the death statement, so only the child
    // process's registry holds the broken style.
    EXPECT_EXIT(
        {
            registerStyle({Style::Custom, "copy-into-strided-leg", {},
                           buildMismatched});
            (void)buildProgram(MachineId::T3d, "copy-into-strided-leg",
                               P::contiguous(), P::contiguous());
        },
        testing::ExitedWithCode(1),
        "'1C1' \\(writes 1\\) and '16S0 \\|\\| Nd \\|\\| 0D1' "
        "\\(reads 16\\)");
}

TEST(TransferProgram, CopyInsideTheLegIsNoFormula)
{
    TransferProgram p = program(MachineId::T3d, Style::Chained,
                                P::contiguous(), P::contiguous());
    p.stages.insert(p.stages.begin() + 1,
                    {localCopy(P::contiguous(), P::contiguous()),
                     StageResource::SenderCpu, BufferBinding::PackBuffer,
                     BufferBinding::PackBuffer});
    EXPECT_FALSE(stageFormula(p.stages).has_value());
    EXPECT_EQ(p.validate(),
              "stages are not copies around one network leg");
    EXPECT_FALSE(paperBackend(MachineId::T3d).rate(p, 2.0).has_value());
}

TEST(TransferProgram, DescribeListsStagesAndCosts)
{
    auto p = program(MachineId::T3d, Style::BufferPacking,
                     P::contiguous(), P::strided(64));
    std::string text = p.describe();
    EXPECT_NE(text.find(p.format()), std::string::npos);
    EXPECT_NE(text.find("sender-cpu"), std::string::npos);
    EXPECT_NE(text.find("pack-buffer"), std::string::npos);
}

// ---------------------------------------------------------------------
// Execution-view details the backends depend on.
// ---------------------------------------------------------------------

TEST(TransferProgram, StagingBuffersPerStyle)
{
    auto at = [](Style s) {
        return program(MachineId::T3d, s, P::contiguous(),
                       P::contiguous())
            .stagingBuffers;
    };
    EXPECT_EQ(at(Style::Chained), 0);
    EXPECT_EQ(at(Style::BufferPacking), 1);
    EXPECT_EQ(at(Style::Pvm), 2);
}

TEST(TransferProgram, DmaDirectBindsSenderEngine)
{
    auto p = program(MachineId::Paragon, Style::DmaDirect,
                     P::contiguous(), P::contiguous());
    EXPECT_NE(p.stageOn(StageResource::SenderEngine), nullptr);
    EXPECT_EQ(program(MachineId::T3d, Style::Chained, P::contiguous(),
                      P::contiguous())
                  .stageOn(StageResource::SenderEngine),
              nullptr);
}

TEST(TransferProgram, StageLoadSigma)
{
    ProgramStage contiguous_load{loadSend(P::contiguous()),
                                 StageResource::SenderCpu,
                                 BufferBinding::SourceArray,
                                 BufferBinding::NetworkPort};
    EXPECT_DOUBLE_EQ(stageLoadSigma(contiguous_load), 1.0);

    ProgramStage strided_load = contiguous_load;
    strided_load.transfer = loadSend(P::strided(16));
    EXPECT_DOUBLE_EQ(stageLoadSigma(strided_load), 0.0);

    ProgramStage gather = contiguous_load;
    gather.transfer = loadSend(P::indexed());
    EXPECT_DOUBLE_EQ(stageLoadSigma(gather), 0.5);

    ProgramStage store{receiveStore(P::indexed()),
                       StageResource::ReceiverCpu,
                       BufferBinding::NetworkPort,
                       BufferBinding::DestArray};
    EXPECT_DOUBLE_EQ(stageLoadSigma(store), 1.0);
    store.transfer = receiveStore(P::strided(16));
    EXPECT_DOUBLE_EQ(stageLoadSigma(store), 0.0);

    ProgramStage addresses = contiguous_load;
    addresses.addressCompute = true;
    EXPECT_DOUBLE_EQ(stageLoadSigma(addresses), 1.0);
}

TEST(TransferProgram, WithReliabilitySetsFlagOnly)
{
    auto p = program(MachineId::T3d, Style::Chained, P::contiguous(),
                     P::contiguous());
    std::string formula = p.format();
    auto r = withReliability(p);
    EXPECT_TRUE(r.reliable);
    EXPECT_EQ(r.format(), formula);
}

} // namespace
