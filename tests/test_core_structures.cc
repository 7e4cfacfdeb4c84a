/**
 * @file
 * Tests for the OoO core's building blocks: physical register file,
 * rename map, issue queue, and load/store queue.
 */

#include <gtest/gtest.h>

#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/phys_reg_file.hh"
#include "core/rename_map.hh"

namespace nda {
namespace {

TEST(PhysRegFile, ResetReservesArchRegs)
{
    PhysRegFile regs(64);
    regs.reset(32);
    EXPECT_EQ(regs.numFree(), 32u);
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_TRUE(regs.ready(static_cast<PhysRegId>(r)));
}

TEST(PhysRegFile, AllocClearsReady)
{
    PhysRegFile regs(64);
    regs.reset(32);
    const PhysRegId r = regs.alloc();
    EXPECT_GE(r, 32);
    EXPECT_FALSE(regs.ready(r));
    regs.setValue(r, 42);
    regs.setReady(r);
    EXPECT_EQ(regs.value(r), 42u);
    EXPECT_TRUE(regs.ready(r));
}

TEST(PhysRegFile, FreeReturnsToPool)
{
    PhysRegFile regs(40);
    regs.reset(32);
    std::vector<PhysRegId> got;
    for (int i = 0; i < 8; ++i)
        got.push_back(regs.alloc());
    EXPECT_FALSE(regs.hasFree());
    regs.free(got[0]);
    EXPECT_TRUE(regs.hasFree());
    EXPECT_EQ(regs.alloc(), got[0]);
}

TEST(RenameMap, RenameReturnsPrevious)
{
    RenameMap map;
    EXPECT_EQ(map.lookup(5), 5);
    const PhysRegId prev = map.rename(5, 40);
    EXPECT_EQ(prev, 5);
    EXPECT_EQ(map.lookup(5), 40);
    map.restore(5, prev);
    EXPECT_EQ(map.lookup(5), 5);
}

DynInstPool &
testPool()
{
    static DynInstPool pool;
    return pool;
}

DynInstPtr
makeInst(InstSeqNum seq, Opcode op = Opcode::kAdd)
{
    DynInstPtr inst = testPool().create();
    inst->seq = seq;
    inst->uop.op = op;
    inst->uop.size = 8;
    return inst;
}

TEST(DynInstPool, RecyclesThroughFreeList)
{
    DynInstPool pool;
    DynInst *first;
    {
        DynInstPtr a = pool.create();
        first = a.get();
        a->seq = 7;
        a->bypassedStores.push_back(3);
        EXPECT_EQ(pool.freeCount(), pool.capacity() - 1);
    }
    // Released handle returned the slot; the next create reuses it
    // with fully reset state.
    EXPECT_EQ(pool.freeCount(), pool.capacity());
    DynInstPtr b = pool.create();
    EXPECT_EQ(b.get(), first);
    EXPECT_EQ(b->seq, 0u);
    EXPECT_TRUE(b->bypassedStores.empty());
}

TEST(DynInstPool, HandleRefcounting)
{
    DynInstPool pool;
    DynInstPtr a = pool.create();
    const std::size_t free_after_one = pool.freeCount();
    {
        DynInstPtr b = a;            // copy
        DynInstPtr c = std::move(b); // move keeps one ref
        EXPECT_EQ(c, a);
        EXPECT_EQ(b, nullptr);
        EXPECT_EQ(pool.freeCount(), free_after_one);
    }
    EXPECT_EQ(pool.freeCount(), free_after_one);
    a = nullptr;
    EXPECT_EQ(pool.freeCount(), pool.capacity());
}

TEST(DynInstPool, GrowsBeyondOneSlab)
{
    DynInstPool pool;
    std::vector<DynInstPtr> held;
    for (int i = 0; i < 1000; ++i)
        held.push_back(pool.create());
    EXPECT_GE(pool.capacity(), 1000u);
    // All handles distinct.
    EXPECT_EQ(pool.freeCount(), pool.capacity() - 1000);
}

TEST(IssueQueue, CapacityEnforced)
{
    IssueQueue iq(2);
    iq.insert(makeInst(1));
    EXPECT_FALSE(iq.full());
    iq.insert(makeInst(2));
    EXPECT_TRUE(iq.full());
}

TEST(IssueQueue, SelectsOnlyReadySources)
{
    PhysRegFile regs(64);
    regs.reset(32);
    IssueQueue iq(8);
    auto a = makeInst(1);
    a->src1 = regs.alloc(); // not ready
    auto c = makeInst(2);
    c->src1 = 3; // arch reg: ready
    iq.insert(a);
    iq.insert(c);
    std::vector<InstSeqNum> issued;
    iq.selectReady(regs, [&](const DynInstPtr &inst) {
        issued.push_back(inst->seq);
        return true;
    });
    ASSERT_EQ(issued.size(), 1u);
    EXPECT_EQ(issued[0], 2u);
    EXPECT_EQ(iq.size(), 1u);
}

TEST(IssueQueue, AgeOrderedSelect)
{
    PhysRegFile regs(64);
    regs.reset(32);
    IssueQueue iq(8);
    for (InstSeqNum s = 1; s <= 4; ++s)
        iq.insert(makeInst(s));
    std::vector<InstSeqNum> issued;
    iq.selectReady(regs, [&](const DynInstPtr &inst) {
        issued.push_back(inst->seq);
        return issued.size() <= 2; // issue only the first two
    });
    ASSERT_GE(issued.size(), 2u);
    EXPECT_EQ(issued[0], 1u);
    EXPECT_EQ(issued[1], 2u);
    EXPECT_EQ(iq.size(), 2u);
}

TEST(IssueQueue, StoreNeedsOnlyBaseRegister)
{
    PhysRegFile regs(64);
    regs.reset(32);
    IssueQueue iq(8);
    auto st = makeInst(1, Opcode::kStore);
    st->src1 = 3;            // ready (arch)
    st->src2 = regs.alloc(); // data not ready — must not block issue
    iq.insert(st);
    int issued = 0;
    iq.selectReady(regs, [&](const DynInstPtr &) {
        ++issued;
        return true;
    });
    EXPECT_EQ(issued, 1);
}

TEST(IssueQueue, RemoveSquashed)
{
    PhysRegFile regs(64);
    regs.reset(32);
    IssueQueue iq(8);
    auto a = makeInst(1);
    auto c = makeInst(2);
    iq.insert(a);
    iq.insert(c);
    a->squashed = true;
    iq.removeSquashed();
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_EQ(iq.occupancyOf(0), 1u);
    // Only the survivor is left to select.
    std::vector<DynInstPtr> left;
    iq.selectReady(regs, [&](const DynInstPtr &inst) {
        left.push_back(inst);
        return false;
    });
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0].get(), c.get());
}

// ---------------------------------------------------------------------------
// LSQ
// ---------------------------------------------------------------------------

class LsqTest : public ::testing::Test
{
  protected:
    LsqTest() : lsq(8, 8), regs(64) { regs.reset(32); }

    DynInstPtr
    addStore(InstSeqNum seq, Addr addr, RegVal data, unsigned size = 8,
             bool resolved = true)
    {
        auto st = makeInst(seq, Opcode::kStore);
        st->uop.size = static_cast<std::uint8_t>(size);
        st->effAddr = addr;
        st->effAddrValid = resolved;
        st->src2 = 2; // arch reg 2 holds the data
        regs.setValue(2, data);
        lsq.insertStore(st);
        return st;
    }

    DynInstPtr
    addLoad(InstSeqNum seq, Addr addr, unsigned size = 8)
    {
        auto ld = makeInst(seq, Opcode::kLoad);
        ld->uop.size = static_cast<std::uint8_t>(size);
        ld->effAddr = addr;
        ld->effAddrValid = true;
        lsq.insertLoad(ld);
        return ld;
    }

    Lsq lsq;
    PhysRegFile regs;
};

TEST_F(LsqTest, ForwardFromCoveringStore)
{
    addStore(1, 0x100, 0xAABBCCDD11223344ULL);
    auto r = lsq.searchStores(2, 0x100, 8, regs);
    EXPECT_TRUE(r.forward);
    EXPECT_EQ(r.value, 0xAABBCCDD11223344ULL);
}

TEST_F(LsqTest, ForwardSubWordWithShift)
{
    addStore(1, 0x100, 0xAABBCCDD11223344ULL);
    auto r = lsq.searchStores(2, 0x102, 2, regs);
    EXPECT_TRUE(r.forward);
    EXPECT_EQ(r.value, 0x1122u); // little-endian bytes at 0x102
}

TEST_F(LsqTest, YoungestCoveringStoreWins)
{
    addStore(1, 0x100, 111);
    addStore(2, 0x100, 222);
    auto r = lsq.searchStores(3, 0x100, 8, regs);
    EXPECT_TRUE(r.forward);
    EXPECT_EQ(r.value, 222u);
}

TEST_F(LsqTest, PartialOverlapStalls)
{
    addStore(1, 0x100, 7, 4);
    auto r = lsq.searchStores(2, 0x102, 8, regs);
    EXPECT_TRUE(r.mustStall);
    EXPECT_FALSE(r.forward);
}

TEST_F(LsqTest, UnresolvedStoreIsBypassed)
{
    auto st = addStore(1, 0, 0, 8, /*resolved=*/false);
    auto r = lsq.searchStores(2, 0x100, 8, regs);
    EXPECT_FALSE(r.forward);
    EXPECT_FALSE(r.mustStall);
    ASSERT_EQ(r.bypassedStores.size(), 1u);
    EXPECT_EQ(r.bypassedStores[0], st->seq);
}

TEST_F(LsqTest, StoreDataNotReadyStalls)
{
    auto st = makeInst(1, Opcode::kStore);
    st->effAddr = 0x100;
    st->effAddrValid = true;
    st->src2 = regs.alloc(); // not broadcast: NDA-unsafe value
    lsq.insertStore(st);
    auto r = lsq.searchStores(2, 0x100, 8, regs);
    EXPECT_TRUE(r.mustStall)
        << "unsafe store data must not forward (paper §5.1)";
}

TEST_F(LsqTest, ViolationDetection)
{
    auto st = addStore(1, 0x100, 0, 8, /*resolved=*/false);
    auto ld = addLoad(2, 0x104, 4);
    ld->executed = true;
    ld->bypassedStores = {1};
    st->effAddrValid = true;
    auto victim = lsq.checkViolations(*st);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->seq, 2u);
}

TEST_F(LsqTest, NoViolationWithoutOverlap)
{
    auto st = addStore(1, 0x100, 0, 8, false);
    auto ld = addLoad(2, 0x200, 8);
    ld->executed = true;
    ld->bypassedStores = {1};
    st->effAddrValid = true;
    EXPECT_EQ(lsq.checkViolations(*st), nullptr);
}

TEST_F(LsqTest, NoViolationIfLoadDidNotBypass)
{
    auto st = addStore(1, 0x100, 0, 8, false);
    auto ld = addLoad(2, 0x100, 8);
    ld->executed = true; // but bypass set empty (issued after resolve)
    st->effAddrValid = true;
    EXPECT_EQ(lsq.checkViolations(*st), nullptr);
}

TEST_F(LsqTest, RetireBypassClearsLoads)
{
    addStore(1, 0x100, 0, 8, false);
    auto ld = addLoad(2, 0x200, 8);
    ld->bypassedStores = {1};
    auto cleared = lsq.retireBypass(1);
    ASSERT_EQ(cleared.size(), 1u);
    EXPECT_EQ(cleared[0]->seq, 2u);
    EXPECT_TRUE(ld->bypassedStores.empty());
}

TEST_F(LsqTest, SquashRemovesYounger)
{
    addLoad(1, 0x100);
    addLoad(5, 0x200);
    addStore(3, 0x300, 0);
    lsq.squashYoungerThan(2);
    EXPECT_EQ(lsq.lqSize(), 1u);
    EXPECT_EQ(lsq.sqSize(), 0u);
}

TEST_F(LsqTest, OverlapPredicates)
{
    EXPECT_TRUE(Lsq::overlaps(0x100, 8, 0x104, 8));
    EXPECT_FALSE(Lsq::overlaps(0x100, 4, 0x104, 4));
    EXPECT_TRUE(Lsq::contains(0x102, 2, 0x100, 8));
    EXPECT_FALSE(Lsq::contains(0x100, 8, 0x102, 2));
}

} // namespace
} // namespace nda
