//! The fire-sensor application (Grove temperature/humidity sketch port).
//!
//! The operation samples temperature and humidity from the ADC, converts
//! the raw 12-bit codes to engineering units with a software shift-add
//! multiplier (the MSP430 core has no hardware multiply), raises the alarm
//! output when the temperature exceeds a configurable threshold, and
//! reports both values over the UART.
//!
//! This is the paper's *smallest* workload: few branches, a handful of
//! data inputs, so both its instrumentation overhead and its log are tiny
//! (Fig. 6's middle group).

use crate::{Scenario, GLOBALS};
use dialed::policy::{GlobalWriteBounds, Policy};
use msp430::platform::Platform;

/// Address of the alarm-threshold global.
pub const THRESH_ADDR: u16 = GLOBALS + 0x20;
/// Alarm output port (`P1OUT`).
pub const P1OUT: u16 = 0x0021;

/// Operation source.
pub const SOURCE: &str = r#"
        .equ ADC_CTL, 0x0142
        .equ ADC_MEM, 0x0140
        .equ P1OUT,   0x0021
        .equ UART_TX, 0x0067
        .equ THRESH,  0x0320

        .org 0x0320
thresh_data:
        .word 50                    ; alarm threshold, degrees C

        .org 0xE000
fire_op:
        ; temperature: t = ((raw >> 4) * 165) >> 8 - 40
        mov.b #1, &ADC_CTL
        mov &ADC_MEM, r10
        rra r10
        rra r10
        rra r10
        rra r10
        mov #165, r11
        call #mul16
        swpb r12
        mov.b r12, r12
        sub #40, r12
        mov r12, r9                 ; r9 = temperature
        ; humidity: h = ((raw >> 4) * 100) >> 8
        mov.b #1, &ADC_CTL
        mov &ADC_MEM, r10
        rra r10
        rra r10
        rra r10
        rra r10
        mov #100, r11
        call #mul16
        swpb r12
        mov.b r12, r12              ; r12 = humidity
        ; alarm when temperature >= threshold
        mov.b #0, &P1OUT
        cmp &THRESH, r9
        jl fs_no_alarm
        mov.b #1, &P1OUT
fs_no_alarm:
        mov.b r9, &UART_TX          ; report temperature
        mov.b r12, &UART_TX         ; report humidity
        jmp fs_exit

        ; r12 = r10 * r11 (low 16 bits), shift-add
mul16:
        clr r12
        mov #16, r13
mul_loop:
        clrc
        rrc r11
        jnc mul_skip
        add r10, r12
mul_skip:
        rla r10
        dec r13
        jnz mul_loop
        ret

fs_exit:
        ret                         ; single toplevel exit (er_exit)
"#;

/// Raw ADC code whose conversion yields the given temperature in °C.
#[must_use]
pub fn raw_for_temp(temp_c: i16) -> u16 {
    // Invert t = ((raw>>4) * 165) >> 8 - 40, approximately.
    let t = (i32::from(temp_c) + 40) * 256 / 165;
    ((t << 4) as u16) & 0x0FFF
}

/// Nominal stimulus: ~24 °C, ~40 % humidity — no alarm.
pub fn feed_nominal(platform: &mut Platform) {
    platform.adc.feed(&[raw_for_temp(24), 0x0680]);
}

/// Hot stimulus: ~80 °C — alarm expected.
pub fn feed_hot(platform: &mut Platform) {
    platform.adc.feed(&[raw_for_temp(80), 0x0680]);
}

/// Verifier policies.
#[must_use]
pub fn policies() -> Vec<Box<dyn Policy>> {
    vec![Box::new(GlobalWriteBounds::new(vec![
        (P1OUT, P1OUT),   // alarm port
        (0x0067, 0x0067), // UART TX
        (0x0142, 0x0143), // ADC control
    ]))]
}

/// The figure-harness scenario.
#[must_use]
pub fn scenario() -> Scenario {
    Scenario {
        name: "FireSensor",
        source: SOURCE,
        op_label: "fire_op",
        args: [0; 8],
        feed: feed_nominal,
        policies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_build_options;
    use apex::pox::StopReason;
    use dialed::pipeline::{InstrumentMode, InstrumentedOp};
    use dialed::prelude::*;

    fn run(feed: impl FnOnce(&mut Platform)) -> (Report, DialedDevice) {
        let op = InstrumentedOp::build(SOURCE, "fire_op", &app_build_options(InstrumentMode::Full))
            .unwrap();
        let ks = KeyStore::from_seed(31);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        feed(dev.platform_mut());
        let info = dev.invoke(&[0; 8]);
        assert_eq!(info.stop, StopReason::ReachedStop, "{:?}", dev.violation());
        let chal = Challenge::derive(b"fs", 0);
        let proof = dev.prove(&chal);
        let mut v = DialedVerifier::new(op, ks);
        for p in policies() {
            v = v.with_policy(p);
        }
        (v.verify(&VerifyRequest::new(&proof, &chal)), dev)
    }

    #[test]
    fn nominal_no_alarm_and_clean() {
        let (report, dev) = verify_nominal();
        assert!(report.is_clean(), "{report}");
        assert_eq!(dev.platform().gpio.p1.output, 0, "no alarm at 24C");
        let tx = &dev.platform().uart.tx;
        assert_eq!(tx.len(), 2);
        let temp = tx[0] as i8;
        assert!((22..=26).contains(&temp), "temp {temp}");
    }

    fn verify_nominal() -> (Report, DialedDevice) {
        run(feed_nominal)
    }

    #[test]
    fn hot_sample_raises_alarm_and_verifies() {
        let (report, dev) = run(feed_hot);
        assert!(report.is_clean(), "{report}");
        assert_eq!(dev.platform().gpio.p1.output, 1, "alarm at 80C");
    }

    #[test]
    fn verifier_reconstructs_sensor_values_from_ilog() {
        // The verifier never sees the device ADC, yet its reconstruction
        // must contain the same UART report bytes.
        let op = InstrumentedOp::build(SOURCE, "fire_op", &app_build_options(InstrumentMode::Full))
            .unwrap();
        let ks = KeyStore::from_seed(32);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        feed_nominal(dev.platform_mut());
        dev.invoke(&[0; 8]);
        let device_tx = dev.platform().uart.tx.clone();
        let proof = dev.prove(&Challenge::derive(b"fs", 1));
        let emu = DialedVerifier::new(op, ks).reconstruct(&proof.pox.or_data);
        let emu_tx: Vec<u8> =
            emu.writes.iter().filter(|w| w.addr == 0x0067).map(|w| w.value as u8).collect();
        assert_eq!(emu_tx, device_tx);
    }

    #[test]
    fn log_is_small() {
        let op = InstrumentedOp::build(SOURCE, "fire_op", &app_build_options(InstrumentMode::Full))
            .unwrap();
        let ks = KeyStore::from_seed(33);
        let mut dev = DialedDevice::new(op, ks);
        feed_nominal(dev.platform_mut());
        let info = dev.invoke(&[0; 8]);
        assert!(info.log_bytes_used < 400, "{}", info.log_bytes_used);
        assert!(info.log_bytes_used > 50, "{}", info.log_bytes_used);
    }

    #[test]
    fn raw_for_temp_round_trips() {
        for t in [0i16, 24, 50, 80, 100] {
            let raw = raw_for_temp(t);
            let back = ((i32::from(raw >> 4) * 165) >> 8) - 40;
            assert!((back - i32::from(t)).abs() <= 1, "t={t} back={back}");
        }
    }
}
