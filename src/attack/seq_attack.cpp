#include "attack/seq_attack.hpp"

#include "attack/og_engine.hpp"

namespace cl::attack {

using netlist::Netlist;

namespace {

/// BMC / KC2 / RANE: the sequential DIS loop. The three differ only in
/// Spec flags (symbolic reset state, warmup volume) and in KC2's
/// wrong-candidate blocking clause.
class SeqDipStrategy : public DipStrategy {
 public:
  explicit SeqDipStrategy(const SeqAttackOptions& options)
      : options_(options) {}

  const char* name() const override {
    if (options_.symbolic_init) return "rane";
    return options_.incremental ? "kc2" : "bmc";
  }

  Spec spec() const override {
    Spec s;
    s.symbolic_init = options_.symbolic_init;
    s.start_depth = options_.start_depth;
    s.warmup_sequences = options_.warmup_sequences;
    s.warmup_cycles = options_.warmup_cycles;
    s.seed = options_.seed;
    s.caller = "seq_attack";
    return s;
  }

  void on_refuted(OgEngine& engine, const sim::BitVec& key) override {
    if (!options_.incremental) return;
    // KC2-style: additionally block this exact wrong key.
    std::vector<sat::Lit> block;
    for (std::size_t i = 0; i < key.size(); ++i) {
      block.push_back(sat::Lit(engine.miter().keys_a()[i], key[i] != 0));
    }
    engine.solver().add_clause(block);
  }

 private:
  SeqAttackOptions options_;
};

}  // namespace

AttackResult seq_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const SeqAttackOptions& options) {
  OgEngine engine(locked, oracle, options.budget,
                  observation_bank_for(locked, oracle.reference()));
  SeqDipStrategy strategy(options);
  return engine.run(strategy);
}

AttackResult bmc_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const AttackBudget& budget) {
  SeqAttackOptions o;
  o.budget = budget;
  o.incremental = false;
  o.symbolic_init = false;
  return seq_attack(locked, oracle, o);
}

AttackResult kc2_attack(const Netlist& locked, const SequentialOracle& oracle,
                        const AttackBudget& budget) {
  SeqAttackOptions o;
  o.budget = budget;
  o.incremental = true;
  o.symbolic_init = false;
  return seq_attack(locked, oracle, o);
}

AttackResult rane_attack(const Netlist& locked, const SequentialOracle& oracle,
                         const AttackBudget& budget) {
  SeqAttackOptions o;
  o.budget = budget;
  o.incremental = false;
  o.symbolic_init = true;
  // The symbolic reset state multiplies the hypothesis space; lean harder
  // on the simulation-guided preprocessing.
  o.warmup_sequences = 8;
  o.warmup_cycles = 16;
  return seq_attack(locked, oracle, o);
}

}  // namespace cl::attack
